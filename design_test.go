package dynp2p

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// designHeading is a top-level DESIGN.md section heading, "## §N …".
	designHeading = regexp.MustCompile(`(?m)^## §(\d+)\b`)
	// designCite is a Go comment's citation of a DESIGN.md section by
	// number, with the passages it quotes from there: the first after a
	// comma, any further one after "and".
	designCite  = regexp.MustCompile(`DESIGN\.md §(\d+)((?:(?:,| and) "[^"]*")*)`)
	designQuote = regexp.MustCompile(`"([^"]*)"`)
)

// squash collapses every run of white space to one blank, so a passage
// quoted across comment lines matches the text it wraps differently in
// DESIGN.md.
func squash(s string) string { return strings.Join(strings.Fields(s), " ") }

// designSections returns DESIGN.md's top-level sections by number, each
// its text up to the next heading, white space squashed.
func designSections(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(b)
	sections := map[string]string{}
	heads := designHeading.FindAllStringSubmatchIndex(doc, -1)
	for i, h := range heads {
		end := len(doc)
		if i+1 < len(heads) {
			end = heads[i+1][0]
		}
		sections[doc[h[2]:h[3]]] = squash(doc[h[0]:end])
	}
	return sections
}

// TestDesignCitations checks every DESIGN.md citation in a Go comment:
// the section it names by number exists, and every passage it quotes from
// that section is there.
func TestDesignCitations(t *testing.T) {
	sections := designSections(t)
	cites := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			text := squash(cg.Text())
			for _, m := range designCite.FindAllStringSubmatch(text, -1) {
				cites++
				where := fset.Position(cg.Pos())
				body, ok := sections[m[1]]
				if !ok {
					t.Errorf("%s: cites DESIGN.md §%s, which has no such section", where, m[1])
					continue
				}
				for _, q := range designQuote.FindAllStringSubmatch(m[2], -1) {
					if !strings.Contains(body, q[1]) {
						t.Errorf("%s: quotes %q from DESIGN.md §%s, which does not hold it", where, q[1], m[1])
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cites == 0 {
		t.Fatal("found no DESIGN.md citation in any Go comment")
	}
	t.Logf("%d citations in %d sections", cites, len(sections))
}
