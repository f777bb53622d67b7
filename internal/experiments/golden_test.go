package experiments

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"repro/internal/lrc"
	"repro/internal/markov"
)

var update = flag.Bool("update", false, "rewrite testdata/report.golden from this run")

// The whole evaluation — every report on the paper's parameters, plus the
// Fig 3 chain of the Xorbas stripe — renders to exactly the bytes on file.
// The simulation is deterministic, so any difference is a change to a
// number the paper reports; regenerate with -update only when that is the
// intent.
func TestReportGolden(t *testing.T) {
	var got bytes.Buffer
	for _, r := range Reports {
		if err := r.Render(&got, 200); err != nil {
			t.Fatalf("%s: %v", r.IDs[0], err)
		}
	}
	ch, err := markov.BuildChain(lrc.NewXorbas(), true, markov.FacebookParams())
	if err != nil {
		t.Fatal(err)
	}
	got.WriteString(ch.Describe())

	const path = "testdata/report.golden"
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}
