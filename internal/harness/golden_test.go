package harness

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The simulator is fully deterministic, so every experiment's rendered
// output is stable byte-for-byte. These golden tests pin the calibrated
// model: any accidental change to a cost constant, a layout rule or the
// renderer shows up as a diff against testdata/<exp>.golden.
//
// Regenerate after an intentional recalibration with:
//
//	go test ./internal/harness -run TestGolden -update

var update = flag.Bool("update", false, "rewrite golden files")

// Experiments that measure real execution on the host rather than the
// deterministic simulator; their output carries wall-clock timings and
// cannot be pinned byte-for-byte. Covered by their own tests instead
// (txn-modes: internal/oltp/modes_test.go + BenchmarkAblationTxnMode;
// read-policy: internal/core read-path tests + BenchmarkReadBypass).
var measured = map[string]bool{"txn-modes": true, "read-policy": true}

func TestGoldenExperiments(t *testing.T) {
	for _, name := range Experiments {
		name := name
		t.Run(name, func(t *testing.T) {
			if measured[name] {
				t.Skip("measured on the host, not deterministic")
			}
			out, err := Run(name)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if string(want) != out {
				t.Errorf("%s output drifted from golden file; if the model was recalibrated intentionally, re-run with -update.\n--- got ---\n%.600s\n--- want ---\n%.600s",
					name, out, want)
			}
		})
	}
}
