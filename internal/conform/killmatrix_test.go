package conform

import (
	"strings"
	"testing"
)

// TestKillMatrixMarkdown pins the rendering rules on a synthetic
// matrix: `—` for a checker outside the mutant's layer, `0/N` for a
// checker that ran without a kill, and the killer count per row.
func TestKillMatrixMarkdown(t *testing.T) {
	km := KillMatrix{
		Mutants: []Mutant{{Name: "a", Layer: Fabric, Doc: "a's doc"}, {Name: "b", Layer: Model, Doc: "b's doc"}},
		Columns: []KillColumn{{"x", "states", "x cells"}, {"y", "cycles", "y cells"}, {"z", "states", "z cells"}},
		Scores: [][]KillScore{
			{{Applies: true, Killed: 2, Run: 3, Min: 9}, {Applies: true, Run: 4}, {}},
			{{}, {}, {Applies: true, Killed: 1, Run: 1, Min: 70}},
		},
	}
	md := km.Markdown()
	for _, want := range []string{
		"| mutant | layer | x | y | z | killers |\n|---|---|---|---|---|---|\n",
		"| a | fabric | 2/3, min 9 states | 0/4 | — | 1 |\n",
		"| b | model | — | — | 1/1, min 70 states | 1 |\n",
		"- **y** — y cells.\n",
		"- **b** — b's doc.\n",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("rendering lacks %q:\n%s", want, md)
		}
	}
}

// TestKillScore: Min is the smallest count among the killing cells.
func TestKillScore(t *testing.T) {
	s := score([]killCell{{n: 5}, {killed: true, n: 40}, {killed: true, n: 12}, {n: 1}})
	if want := (KillScore{Applies: true, Killed: 2, Run: 4, Min: 12}); s != want {
		t.Fatalf("score = %+v, want %+v", s, want)
	}
}

// TestRunCellsKeepsOrder: the worker pool returns results in cell
// order whatever the scheduling, which is what keeps the matrix
// deterministic.
func TestRunCellsKeepsOrder(t *testing.T) {
	var cells []func() killCell
	for i := 0; i < 9; i++ {
		i := i
		cells = append(cells, func() killCell { return killCell{killed: i%2 == 0, n: uint64(i)} })
	}
	for i, c := range runCells(cells, 3) {
		if c.n != uint64(i) || c.killed != (i%2 == 0) {
			t.Fatalf("cell %d came back as %+v", i, c)
		}
	}
}
