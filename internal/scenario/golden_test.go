package scenario

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynp2p"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current engine")

// goldenRun is one builtin at one size and seed; label names its golden
// files and subtest.
type goldenRun struct {
	name, label string
	n           int
	seed        uint64
}

// goldenRuns is every builtin at n=256, seed 1, and the two fault-model
// builtins at n=512, seeds 1-3, where faults delay grows, notices and
// committee pieces past each other.
func goldenRuns() []goldenRun {
	var runs []goldenRun
	for _, name := range Names() {
		runs = append(runs, goldenRun{name: name, label: name, n: 256, seed: 1})
	}
	for _, name := range []string{"lossy", "erasure-lossy"} {
		for seed := uint64(1); seed <= 3; seed++ {
			runs = append(runs, goldenRun{name: name, label: fmt.Sprintf("%s-n512-seed%d", name, seed), n: 512, seed: seed})
		}
	}
	return runs
}

// TestGoldenBuiltins pins what every golden run does in both routing
// modes: the report text verbatim, and the SHA-256 sums of its per-round
// trace (-trace) and per-operation trace (-optrace). An engine change that
// claims no behaviour change must leave all three byte for byte the same;
// a deliberate one re-cuts them with -update and says why. Under -short
// the per-operation trace is not written and its sum is not checked.
func TestGoldenBuiltins(t *testing.T) {
	if *update && testing.Short() {
		t.Fatal("-update needs the full run: drop -short")
	}
	for _, run := range goldenRuns() {
		for _, mode := range []dynp2p.RoutingMode{dynp2p.RoutingOracle, dynp2p.RoutingOverlay} {
			t.Run(run.label+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				spec, err := Builtin(run.name, run.n, run.seed)
				if err != nil {
					t.Fatal(err)
				}
				spec.Routing.Mode = mode
				traceSum, opSum := sha256.New(), sha256.New()
				opt := Options{Trace: traceSum}
				if !testing.Short() {
					opt.OpTrace = opSum
				}
				rep, err := Run(spec, opt)
				if err != nil {
					t.Fatal(err)
				}
				var report bytes.Buffer
				rep.Fprint(&report)
				sums := []string{
					fmt.Sprintf("%x  trace.jsonl", traceSum.Sum(nil)),
					fmt.Sprintf("%x  optrace.jsonl", opSum.Sum(nil)),
				}

				base := filepath.Join("testdata", "golden", run.label+"."+mode.String())
				if *update {
					writeGolden(t, base+".txt", report.String())
					writeGolden(t, base+".sha256", strings.Join(sums, "\n")+"\n")
					return
				}
				if want := readGolden(t, base+".txt"); report.String() != want {
					t.Errorf("report differs from %s.txt:\n--- got\n%s--- want\n%s", base, report.String(), want)
				}
				want := strings.Split(readGolden(t, base+".sha256"), "\n")
				if testing.Short() {
					sums = sums[:1] // no optrace was written
				}
				for i, got := range sums {
					if i >= len(want) || got != want[i] {
						t.Errorf("%s.sha256: got %q, want line %d of the file", base, got, i+1)
					}
				}
			})
		}
	}
}

func readGolden(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	return string(b)
}

func writeGolden(t *testing.T, path, s string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
		t.Fatal(err)
	}
}
