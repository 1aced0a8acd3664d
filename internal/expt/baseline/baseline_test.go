package baseline

import (
	"slices"
	"testing"
)

// TestOpsLedger pins the ledger's rules: a mark finishes at most once and
// only while open, an open mark expires as a failure at its deadline, a
// late finish is ignored, and a drain empties the results.
func TestOpsLedger(t *testing.T) {
	o := ops{open: make(map[uint64]openOp)}
	done := o.begin(7, 100, 3, 10)    // finished in time
	expired := o.begin(8, 200, 4, 12) // left open until its deadline
	if done != 100^7 || expired != 200^8 {
		t.Fatalf("marks %d, %d, want key^searcher", done, expired)
	}

	o.finish(12345, 5, 1) // never begun
	o.finish(done, 6, 3)
	o.finish(done, 7, 4) // already finished
	want := []Result{{Searcher: 7, Key: 100, Start: 3, Done: 6, Success: true, Hops: 3}}
	if got := o.DrainResults(9); !slices.Equal(got, want) {
		t.Fatalf("first drain %+v, want %+v", got, want)
	}
	if got := o.DrainResults(11); len(got) != 0 {
		t.Fatalf("drain before the deadline returned %+v, want nothing", got)
	}

	want = []Result{{Searcher: 8, Key: 200, Start: 4, Done: -1}}
	if got := o.DrainResults(12); !slices.Equal(got, want) {
		t.Fatalf("drain at the deadline %+v, want %+v", got, want)
	}
	o.finish(expired, 13, 2) // after expiry
	if got := o.DrainResults(14); len(got) != 0 {
		t.Fatalf("drain after expiry returned %+v, want nothing", got)
	}
	if len(o.open) != 0 {
		t.Fatalf("%d operations still open", len(o.open))
	}
}
