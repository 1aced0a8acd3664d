package expt

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current experiments")

// TestGoldenTables pins every experiment's Quick table verbatim, as
// Table.Fprint renders it (no timing lines): a change that claims no
// behaviour change must leave each byte for byte the same, and a
// deliberate one re-cuts them with -update and says why.
func TestGoldenTables(t *testing.T) {
	for _, e := range Index {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var got bytes.Buffer
			e.Run(Quick).Fprint(&got)
			path := filepath.Join("testdata", "golden", e.ID+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("table differs from %s:\n--- got\n%s--- want\n%s", path, got.Bytes(), want)
			}
		})
	}
}
