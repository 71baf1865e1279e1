package report

import (
	"os"
	"strings"
	"testing"

	"ilsim/internal/core"
	"ilsim/internal/exp"
)

// TestExperimentsDocIsGenerated: the committed EXPERIMENTS.md must be
// byte-identical to what `go run ./cmd/ilsim-report -o EXPERIMENTS.md`
// writes, so a model change cannot leave the document describing an older
// model. Regenerate it with that command when this fails.
func TestExperimentsDocIsGenerated(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite collection is slow")
	}
	committed, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	res, err := CollectParallel(exp.New(0), cfg, DocScale, true)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Markdown(cfg)
	if got == string(committed) {
		return
	}
	want := strings.Split(string(committed), "\n")
	lines := strings.Split(got, "\n")
	for i := 0; i < len(want) || i < len(lines); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(lines) {
			g = lines[i]
		}
		if w != g {
			t.Fatalf("EXPERIMENTS.md is stale (regenerate: go run ./cmd/ilsim-report -o EXPERIMENTS.md); first difference at line %d:\ncommitted: %q\ngenerated: %q",
				i+1, w, g)
		}
	}
}
