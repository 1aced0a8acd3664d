package expt

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

// parsePct converts a "97.5%" cell back to a fraction.
func parsePct(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("bad percentage cell %q: %v", cell, err)
	}
	return v / 100
}

func parseF(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("bad float cell %q: %v", cell, err)
	}
	return v
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "EX", Title: "demo", Claim: "c", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.AddNote("note %d", 7)
	s := tb.String()
	for _, want := range []string{"EX", "demo", "a", "bb", "note 7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"E01", "e05", "E13"} {
		if ByID(id) == nil {
			t.Fatalf("ByID(%q) = nil", id)
		}
	}
	if ByID("E99") != nil {
		t.Fatal("ByID should reject unknown ids")
	}
}

// The individual experiment checks below run at Quick scale and assert the
// *claim shape*, not exact numbers — these are the automated versions of
// the EXPERIMENTS.md verdicts.

func TestE01SoupShape(t *testing.T) {
	tb := E01SoupMixing(Quick)
	if len(tb.Rows) < 3 {
		t.Fatal("expected a sweep over n")
	}
	for _, row := range tb.Rows {
		tv := parseF(t, row[2])
		if tv > 0.25 {
			t.Fatalf("destination TV %v too far from uniform (row %v)", tv, row)
		}
		surv := parsePct(t, row[5])
		theory := parsePct(t, row[6])
		if surv < theory-0.15 || surv > theory+0.15 {
			t.Fatalf("walk survival %v far from theory %v (row %v)", surv, theory, row)
		}
		band := parsePct(t, row[4])
		if band < 0.5 {
			t.Fatalf("band fraction %v too low (row %v)", band, row)
		}
	}
	// E01 is a pure function of its seed, so the whole table is pinned, as
	// E02's is.
	want := [][]string{
		{"256", "19", "0.0338", "0.164", "87.2%", "41.7%", "41.0%"},
		{"512", "32", "0.0323", "0.210", "79.5%", "45.7%", "44.4%"},
		{"1024", "56", "0.0312", "0.269", "69.3%", "48.0%", "46.5%"},
	}
	if len(tb.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(tb.Rows), len(want))
	}
	for i, row := range tb.Rows {
		if !slices.Equal(row, want[i]) {
			t.Errorf("row %d = %v, want %v", i, row, want[i])
		}
	}
}

func TestE02CompletionShape(t *testing.T) {
	tb := E02WalkCompletion(Quick)
	// First row is the uncapped run: delay must equal T exactly.
	first := tb.Rows[0]
	if first[0] != "inf" {
		t.Fatalf("first row should be uncapped, got %v", first)
	}
	if parseF(t, first[1]) != parseF(t, first[3]) {
		t.Fatalf("uncapped mean delay %v != T %v", first[1], first[3])
	}
	// The tightest cap must defer tokens.
	last := tb.Rows[len(tb.Rows)-1]
	if parseF(t, last[5]) == 0 {
		t.Fatalf("tightest cap deferred nothing: %v", last)
	}
	// E02 is a pure function of its seed, so the whole table is pinned: a
	// change to the walk model it runs shows here cell by cell.
	want := [][]string{
		{"inf", "13.00", "13", "13", "0", "0.00"},
		{"4.00", "13.00", "13", "13", "0", "0.00"},
		{"2.00", "13.00", "13", "13", "0", "0.00"},
		{"1.00", "13.00", "13", "13", "0", "5.85"},
		{"0.50", "22.70", "31", "13", "0", "16723.89"},
	}
	if len(tb.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(tb.Rows), len(want))
	}
	for i, row := range tb.Rows {
		if !slices.Equal(row, want[i]) {
			t.Errorf("row %d = %v, want %v", i, row, want[i])
		}
	}
}

func TestE03SurvivalMonotone(t *testing.T) {
	tb := E03WalkSurvival(Quick)
	prev := -1.0
	for _, row := range tb.Rows {
		died := parseF(t, row[2])
		if died < prev {
			t.Fatalf("death rate not monotone in churn: %v", tb.Rows)
		}
		prev = died
	}
}

func TestE04ReceiptsShape(t *testing.T) {
	tb := E04ReceiptBounds(Quick)
	for _, row := range tb.Rows {
		expected := parseF(t, row[2])
		mean := parseF(t, row[3])
		if mean < expected*0.6 || mean > expected*1.6 {
			t.Fatalf("mean receipts %v far from expected %v", mean, expected)
		}
		if frac := parsePct(t, row[5]); frac < 0.8 {
			t.Fatalf("receipt bound fraction %v too low", frac)
		}
	}
}

func TestE06LandmarkScaling(t *testing.T) {
	tb := E06LandmarkSize(Quick)
	for _, row := range tb.Rows {
		ratio := parseF(t, row[4])
		if ratio < 0.5 || ratio > 30 {
			t.Fatalf("landmark/sqrt(n) ratio %v outside plausible band (row %v)", ratio, row)
		}
	}
}

func TestE08RetrievalShape(t *testing.T) {
	tb := E08RetrievalLatency(Quick)
	for _, row := range tb.Rows {
		if rate := parsePct(t, row[2]); rate < 0.7 {
			t.Fatalf("retrieval success %v too low (row %v)", rate, row)
		}
	}
}

func TestE10ErasureSavings(t *testing.T) {
	tb := E10ErasureCoding(Quick)
	if len(tb.Rows) < 2 {
		t.Fatal("need replication and IDA rows")
	}
	repl := parseF(t, tb.Rows[0][2])
	idaOverhead := parseF(t, tb.Rows[1][2])
	if idaOverhead >= repl/2 {
		t.Fatalf("IDA overhead %v not clearly below replication %v", idaOverhead, repl)
	}
}
