package bench

import (
	"strings"
	"testing"
)

// TestClusterFigures smoke-runs the -cluster driver at quick scale: all
// three phases must collect samples, no acknowledged write may be lost, and
// the victim must be readmitted.
func TestClusterFigures(t *testing.T) {
	f := Quick().clusterFigRun(4, 3)
	tabs := []Table{f.phaseTable(), f.shardTable(), f.controlTable()}
	if len(tabs) != 3 {
		t.Fatalf("want 3 tables, got %d", len(tabs))
	}
	if f.consistency != nil {
		t.Fatalf("acked-write loss: %v", f.consistency)
	}
	if f.res.Errors != 0 || f.res.BadReads != 0 {
		t.Fatalf("errors=%d badReads=%d", f.res.Errors, f.res.BadReads)
	}
	if !f.run.Healthy {
		t.Fatal("victim never readmitted")
	}
	if f.run.CrashAt == 0 {
		t.Fatal("crash script never fired")
	}
	for _, row := range tabs[0].Rows {
		if row[1] == "0" {
			t.Errorf("phase %q collected no samples", row[0])
		}
	}
	var b strings.Builder
	tabs[2].Fprint(&b)
	if !strings.Contains(b.String(), "0 (every acked write byte-identical") {
		t.Fatalf("controller table missing zero-loss line:\n%s", b.String())
	}
}

// TestClusterFiguresDeterministic renders the full figure set at a fixed
// seed twice and requires byte-identical output — the acceptance bar for the
// -cluster driver.
func TestClusterFiguresDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two cluster runs are seconds-long")
	}
	render := func() string {
		var b strings.Builder
		for _, tab := range Quick().ClusterFigures(4, 3) {
			tab.Fprint(&b)
		}
		return b.String()
	}
	if a, bb := render(), render(); a != bb {
		t.Fatalf("cluster figure output differs between two runs:\n--- a ---\n%s\n--- b ---\n%s", a, bb)
	}
}
