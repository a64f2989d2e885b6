package harness

import (
	"strings"
	"testing"

	"robustconf/internal/index/kinds"
	"robustconf/internal/workload"
)

func TestOptSizeMatchesTable2(t *testing.T) {
	cases := []struct {
		kind kinds.Kind
		mix  workload.Mix
		want int
	}{
		{kinds.FPTree, workload.A, 24},
		{kinds.FPTree, workload.C, 48},
		{kinds.BWTree, workload.A, 48},
		{kinds.HashMap, workload.A, 1},
		{kinds.BTree, workload.D, 24},
	}
	for _, c := range cases {
		got, err := OptSize(c.kind, c.mix)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("OptSize(%s, %s) = %d, want %d", c.kind.Name(), c.mix.Name, got, c.want)
		}
	}
}

func TestFigure1SeriesComplete(t *testing.T) {
	fig, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d, want 4", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != 3 {
			t.Errorf("series %q has %d points, want 3 workloads", s.Name, len(s.Points))
		}
	}
	// Opt. Configured must lead every workload.
	opt := fig.SeriesNamed("Opt. Configured")
	for _, other := range fig.Series {
		if other.Name == opt.Name {
			continue
		}
		for i, p := range other.Points {
			if o := opt.Points[i]; p.Y > o.Y {
				t.Errorf("%s beats Opt at workload %v: %.1f > %.1f", other.Name, p.X, p.Y, o.Y)
			}
		}
	}
}

func TestTable2Rendering(t *testing.T) {
	out, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"B-Tree", "FP-Tree", "BW-Tree", "Hash Map", "Read-Only", "Read-Update", "Read-Insert"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure8Shapes(t *testing.T) {
	abort, l2, err := Figure8()
	if err != nil {
		t.Fatal(err)
	}
	se := abort.SeriesNamed("SE")
	if y, ok := se.YAt(384); !ok || y < 0.5 {
		t.Errorf("SE abort at 384 = %v,%v, want high", y, ok)
	}
	snt := abort.SeriesNamed("SN-Thread")
	if snt.MaxY() != 0 {
		t.Errorf("SN-Thread abort MaxY = %v, want 0", snt.MaxY())
	}
	l2snt := l2.SeriesNamed("SN-Thread")
	l2opt := l2.SeriesNamed("Opt. Configured")
	y1, _ := l2snt.YAt(384)
	y2, _ := l2opt.YAt(384)
	if y1 <= y2 {
		t.Errorf("SN-Thread L2 (%.1f) should exceed Opt (%.1f)", y1, y2)
	}
}

func TestFigure13Shapes(t *testing.T) {
	left, right, err := Figure13()
	if err != nil {
		t.Fatal(err)
	}
	if len(left.Series) != 4 || len(right.Series) != 4 {
		t.Fatalf("series = %d/%d, want 4 each", len(left.Series), len(right.Series))
	}
	ours := right.SeriesNamed("Our OLTP Engine (FP-Tree)")
	base := right.SeriesNamed("SN-NUMA OLTP Engine (FP-Tree)")
	o0, _ := ours.YAt(0)
	o75, _ := ours.YAt(75)
	if o75 < 0.95*o0 {
		t.Errorf("ours should be flat across remote%%: %.0f → %.0f", o0, o75)
	}
	b0, _ := base.YAt(0)
	b1, _ := base.YAt(1)
	if b1 > 0.1*b0 {
		t.Errorf("baseline should collapse at 1%% remote: %.0f → %.0f", b0, b1)
	}
}

func TestRunKnownExperiments(t *testing.T) {
	// Smoke every named experiment through the text renderer (fig6/7/10/12
	// are heavier; they are covered by RunAll in the bench harness, and
	// individually here for the lighter ones).
	for _, name := range []string{"fig1", "table2", "fig8", "fig9", "fig11", "fig13"} {
		out, err := Run(name)
		if err != nil {
			t.Fatalf("Run(%s): %v", name, err)
		}
		if len(out) == 0 {
			t.Errorf("Run(%s) produced no output", name)
		}
	}
	if _, err := Run("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFigure12Rows(t *testing.T) {
	rows, err := Figure12()
	if err != nil {
		t.Fatal(err)
	}
	// 4 structures × 5 strategies × 2 system sizes.
	if len(rows) != 40 {
		t.Fatalf("rows = %d, want 40", len(rows))
	}
	rendered := RenderFigure12(rows)
	if !strings.Contains(rendered, "FP-Tree") || !strings.Contains(rendered, "8 sockets") {
		t.Errorf("rendering incomplete:\n%s", rendered[:200])
	}
	// The FP-Tree SE bar at 8 sockets must dwarf Opt (the annotated
	// truncated bars of the paper's figure).
	var seFP, optFP float64
	for _, r := range rows {
		if r.Structure == "FP-Tree" && r.Sockets == 8 {
			switch r.Strategy {
			case "SE":
				seFP = r.TMAM.Total()
			case "Opt. Configured":
				optFP = r.TMAM.Total()
			}
		}
	}
	if seFP < 10*optFP {
		t.Errorf("FP-Tree 8-socket SE cost (%.0f) should dwarf Opt (%.0f)", seFP, optFP)
	}
}

func TestAblations(t *testing.T) {
	out, err := Ablations()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"NUMA-aware", "retry budget", "calibrated domains", "factor"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablations missing %q:\n%s", want, out)
		}
	}
	// "ablations" must be routable through Run.
	if _, err := Run("ablations"); err != nil {
		t.Fatal(err)
	}
}

func TestRunFormatCSV(t *testing.T) {
	out, err := RunFormat("fig9", "csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "threads,") {
		t.Errorf("csv output missing header:\n%s", out[:100])
	}
	if _, err := RunFormat("fig9", "xml"); err == nil {
		t.Error("unknown format accepted")
	}
}
