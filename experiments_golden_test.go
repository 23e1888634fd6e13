package padc

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"padc/internal/exp"
)

var update = flag.Bool("update", false, "regenerate golden experiment tables")

// goldenScale keeps the whole experiment set to a few seconds while still
// running every figure's alone baselines, grid and reducer.
var goldenScale = exp.Scale{Insts: 5_000, Mixes2: 1, Mixes4: 1, Mixes8: 1}

// TestExperimentGoldens pins the rendered table of every experiment at
// goldenScale. Any change to a figure's runs or arithmetic fails here until
// it is reviewed and the files are regenerated with
// `go test -run ExperimentGoldens -update .`. abl-memside is left out: it
// floors its own instruction count at 400K whatever the scale, and
// TestAblationMemSideShape in internal/exp covers it.
func TestExperimentGoldens(t *testing.T) {
	for _, id := range ExperimentIDs() {
		if id == "abl-memside" {
			continue
		}
		t.Run(id, func(t *testing.T) {
			var b strings.Builder
			for _, tab := range experimentRegistry[id](goldenScale) {
				b.WriteString(tab.String())
				b.WriteByte('\n')
			}
			compareGolden(t, filepath.Join("testdata", "experiments", id+".txt"), []byte(b.String()))
		})
	}
}

func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to generate): %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("%s drifted from its golden table:\n--- want\n%s\n--- got\n%s\nrerun with -update if the change is intentional",
			path, want, got)
	}
}
