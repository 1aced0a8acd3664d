// Package expt implements the reproduction experiments: one experiment per
// theorem/lemma/claim of the paper (the paper is purely analytical, so
// these tables play the role of its "figures"; see DESIGN.md §4 for the
// index and EXPERIMENTS.md for paper-vs-measured commentary).
//
// Every experiment is a pure function of its Scale and a fixed base seed,
// so tables regenerate identically. Quick scale finishes in seconds per
// experiment (CI-friendly); Full scale extends the sweeps for the numbers
// quoted in EXPERIMENTS.md.
package expt

import (
	"fmt"
	"io"
	"strings"
)

// Scale selects experiment size.
type Scale int

// Scales.
const (
	// Quick runs a reduced sweep suitable for benchmarks and CI.
	Quick Scale = iota
	// Full runs the sweep quoted in EXPERIMENTS.md (minutes).
	Full
)

// Table is the output of one experiment.
type Table struct {
	ID     string // e.g. "E01"
	Title  string
	Claim  string // the paper statement whose shape the rows must show
	Header []string
	Rows   [][]string
	Notes  []string // observations computed from the data (fits, ratios)
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a computed observation.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(w, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// f2 formats a float with 2 decimals; f3/f4 likewise.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }
func d64(v int64) string  { return fmt.Sprintf("%d", v) }

// pct formats a fraction as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// Experiment is one entry of the experiment index.
type Experiment struct {
	ID  string // "E01" … "E13"
	Run func(Scale) *Table
}

// Index lists every reproduction experiment in table order. It is the
// only list: ByID and cmd/exptab's default run both read it.
var Index = []Experiment{
	{"E01", E01SoupMixing},
	{"E02", E02WalkCompletion},
	{"E03", E03WalkSurvival},
	{"E04", E04ReceiptBounds},
	{"E05", E05CommitteeLifetime},
	{"E06", E06LandmarkSize},
	{"E07", E07StorageAvailability},
	{"E08", E08RetrievalLatency},
	{"E09", E09MessageComplexity},
	{"E10", E10ErasureCoding},
	{"E11", E11ChurnStress},
	{"E12", E12BaselineComparison},
	{"E13", E13Ablations},
}

// ByID returns the experiment function for an id like "E01" (any case),
// or nil.
func ByID(id string) func(Scale) *Table {
	for _, e := range Index {
		if strings.EqualFold(e.ID, id) {
			return e.Run
		}
	}
	return nil
}
