package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/svc"
)

// runExit runs the kappa binary and returns its exit code and stderr.
func runExit(t *testing.T, kappa string, args ...string) (int, string) {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(kappa, args...)
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		return 0, stderr.String()
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("kappa %v: %v", args, err)
	}
	return ee.ExitCode(), stderr.String()
}

// TestEvalRejectsOutOfRangeBlocks pins -eval's input validation: a partition
// file holding a block id outside [0, k) — too large, negative, or beyond
// 32 bits (which used to wrap silently to 0) — is a usage error: exit 2, one
// line on stderr, no panic.
func TestEvalRejectsOutOfRangeBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	kappa, _ := buildBinaries(t)
	dir := t.TempDir()
	good := filepath.Join(dir, "g.part")
	if code, stderr := runExit(t, kappa, "-gen", "grid:4x4", "-k", "2", "-out", good); code != 0 {
		t.Fatalf("kappa -out: exit %d\n%s", code, stderr)
	}
	if code, stderr := runExit(t, kappa, "-gen", "grid:4x4", "-k", "2", "-eval", good); code != 0 {
		t.Fatalf("kappa -eval on its own output: exit %d\n%s", code, stderr)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	for _, id := range []string{"7", "-1", "4294967296"} {
		bad := filepath.Join(dir, "bad.part")
		if err := os.WriteFile(bad, []byte(id+"\n"+strings.Join(lines[1:], "")), 0o644); err != nil {
			t.Fatal(err)
		}
		code, stderr := runExit(t, kappa, "-gen", "grid:4x4", "-k", "2", "-eval", bad)
		if code != 2 || strings.Contains(stderr, "panic:") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("block %s: exit %d, want 2 with a one-line diagnostic:\n%s", id, code, stderr)
		}
	}
}

// TestOutWriteFailureExitsOne pins that a failed -out write is the run's
// failure: on a full device the command exits 1 instead of 0 with a
// truncated file.
func TestOutWriteFailureExitsOne(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	kappa, _ := buildBinaries(t)
	code, stderr := runExit(t, kappa, "-gen", "grid:64x64", "-k", "2", "-out", "/dev/full")
	if code != 1 || !strings.Contains(stderr, "no space left") {
		t.Fatalf("exit %d, want 1 with the write error:\n%s", code, stderr)
	}
}

// TestAPIEpsZeroMatchesCLI pins that an explicit "eps": 0 in a job spec is
// the CLI's -eps 0, not the 0.03 default: the job's partition is
// byte-identical to `kappa -eps 0`, and differs from the default-eps run on
// this instance (so the test can tell the two apart).
func TestAPIEpsZeroMatchesCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	kappa, _ := buildBinaries(t)
	dir := t.TempDir()
	cli := func(name string, extra ...string) []byte {
		out := filepath.Join(dir, name)
		args := append([]string{"-gen", "rgg:10", "-k", "4", "-seed", "3", "-out", out}, extra...)
		if code, stderr := runExit(t, kappa, args...); code != 0 {
			t.Fatalf("kappa %v: exit %d\n%s", args, code, stderr)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	eps0, epsDefault := cli("eps0.part", "-eps", "0"), cli("default.part")
	if bytes.Equal(eps0, epsDefault) {
		t.Fatal("eps 0 and the default eps give the same partition; pick an instance that tells them apart")
	}

	s := svc.New(svc.Options{Concurrency: 1})
	defer s.Close()
	h := s.Handler()
	submit := httptest.NewRecorder()
	h.ServeHTTP(submit, httptest.NewRequest("POST", "/api/v1/jobs",
		strings.NewReader(`{"gen":"rgg:10","k":4,"seed":3,"eps":0}`)))
	if submit.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", submit.Code, submit.Body.String())
	}
	var st svc.Status
	for deadline := time.Now().Add(30 * time.Second); !st.State.Terminal(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("job still %s", st.State)
		}
		poll := httptest.NewRecorder()
		h.ServeHTTP(poll, httptest.NewRequest("GET", submit.Header().Get("Location"), nil))
		if err := json.Unmarshal(poll.Body.Bytes(), &st); err != nil {
			t.Fatalf("status body %q: %v", poll.Body.String(), err)
		}
	}
	if st.State != svc.StateDone {
		t.Fatalf("job %s: %s", st.State, st.Error)
	}
	got := httptest.NewRecorder()
	h.ServeHTTP(got, httptest.NewRequest("GET", st.Partition, nil))
	if !bytes.Equal(got.Body.Bytes(), eps0) {
		t.Fatal(`job with "eps": 0 differs from kappa -eps 0`)
	}
}
