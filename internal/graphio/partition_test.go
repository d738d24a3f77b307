package graphio

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestPartitionRoundTrip pins the text format: one decimal id per line, and
// ReadPartition inverts WritePartition across the writer's chunk boundary.
func TestPartitionRoundTrip(t *testing.T) {
	blocks := make([]int32, 40000)
	for i := range blocks {
		blocks[i] = int32(i*7919) % 1000
	}
	var buf bytes.Buffer
	if err := WritePartition(&buf, blocks[:3]); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "0\n919\n838\n" {
		t.Fatalf("encoding %q", got)
	}
	buf.Reset()
	if err := WritePartition(&buf, blocks); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPartition(&buf, len(blocks), 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blocks {
		if got[i] != blocks[i] {
			t.Fatalf("entry %d: got %d, want %d", i, got[i], blocks[i])
		}
	}
}

// TestReadPartitionRejects pins the reader's validation: ids outside [0, k)
// — including values that do not fit in 32 bits — are ErrInvalidConfig
// errors; malformed lines and wrong counts are plain errors.
func TestReadPartitionRejects(t *testing.T) {
	for name, tc := range map[string]struct {
		text    string
		invalid bool
	}{
		"too large":    {"0\n7\n1\n", true},
		"negative":     {"0\n-1\n1\n", true},
		"wraps to 0":   {"0\n4294967296\n1\n", true},
		"beyond int64": {"0\n99999999999999999999\n1\n", true},
		"not a number": {"0\nx\n1\n", false},
		"too few":      {"0\n1\n", false},
		"too many":     {"0\n1\n1\n0\n", false},
		"blank lines":  {"\n\n", false},
		"fraction":     {"0\n1.0\n1\n", false},
		"two per line": {"0 1\n1\n0\n", false},
		"empty":        {"", false},
	} {
		_, err := ReadPartition(strings.NewReader(tc.text), 3, 2)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if errors.Is(err, core.ErrInvalidConfig) != tc.invalid {
			t.Errorf("%s: %v, ErrInvalidConfig = %v, want %v", name, err, !tc.invalid, tc.invalid)
		}
	}
	if got, err := ReadPartition(strings.NewReader(" 1 \n\n0\n1\n"), 3, 2); err != nil || len(got) != 3 {
		t.Fatalf("blank lines and padding: %v %v", got, err)
	}
}

// errWriter fails every write, like a full disk.
type errWriter struct{}

var errFull = errors.New("no space left on device")

func (errWriter) Write([]byte) (int, error) { return 0, errFull }

// TestWritePartitionReturnsWriteError pins that a failed write reaches the
// caller, both for a small partition (one final write) and a large one
// (chunked writes).
func TestWritePartitionReturnsWriteError(t *testing.T) {
	for _, n := range []int{3, 100000} {
		if err := WritePartition(errWriter{}, make([]int32, n)); !errors.Is(err, errFull) {
			t.Errorf("n=%d: got %v, want the write error", n, err)
		}
	}
}
