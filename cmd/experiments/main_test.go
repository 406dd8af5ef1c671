package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"testing"
)

// goldenPath holds the output of
//
//	go run ./cmd/experiments -all -stable -json -progress=false
//
// the paper's tables and figures with wall-clock fields masked. Every
// compiler change that is meant to keep schedules unchanged must leave
// it byte-identical; regenerate it with `go test ./cmd/experiments
// -update` only for an intended change of results.
const goldenPath = "testdata/all-stable.json"

var update = flag.Bool("update", false, "rewrite "+goldenPath+" from the current code")

// runMainEnv makes the test binary act as the command: the golden test
// re-executes itself with this set, so it checks the bytes main writes,
// flag parsing and JSON encoding included.
const runMainEnv = "EXPERIMENTS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestGoldenAllStable(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-all", "-stable", "-json", "-progress=false")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("experiments -all -stable -json: %v\n%s", err, stderr.Bytes())
	}
	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		line := 1 + bytes.Count(got[:commonPrefix(got, want)], []byte("\n"))
		t.Fatalf("output differs from %s from line %d on (%d bytes, want %d); rerun with -update only if the change of results is intended",
			goldenPath, line, len(got), len(want))
	}
}

func commonPrefix(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}
