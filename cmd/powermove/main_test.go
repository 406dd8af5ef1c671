package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv makes the test binary act as the command, so tests can
// check its exit status and output streams.
const runMainEnv = "POWERMOVE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsWorkloadsWithoutCircuit: a -bench size with no circuit
// exits non-zero with the cause on stderr and nothing on stdout, in both
// the text and the -json mode, instead of panicking in the generator.
func TestRejectsWorkloadsWithoutCircuit(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "QAOA-regular3", "-n", "5"},
		{"-bench", "QAOA-regular3", "-n", "5", "-json", "-stable"},
		{"-bench", "QAOA-regular4", "-n", "3"},
		{"-bench", "QAOA-regular4", "-n", "3", "-json"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		exit, ok := err.(*exec.ExitError)
		if !ok || exit.ExitCode() != 1 {
			t.Errorf("%v: err %v, want exit status 1", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote to stdout: %s", args, stdout.Bytes())
		}
		if msg := stderr.String(); !strings.Contains(msg, "regular graph") || strings.Contains(msg, "panic") {
			t.Errorf("%v: stderr %q, want the cause and no panic", args, msg)
		}
	}
}
