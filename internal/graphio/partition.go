package graphio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
)

// ReadPartition parses the partition text format WritePartition writes — one
// block id per line, the paper's output format — for a graph of n nodes cut
// into k blocks. Blank lines and surrounding white space are ignored. A
// block id outside [0, k), including one that does not fit in 32 bits, is an
// ErrInvalidConfig error; a line that is not an integer, or a count other
// than n, is a plain error.
func ReadPartition(r io.Reader, n, k int) ([]int32, error) {
	blocks := make([]int32, 0, n)
	entries := 0
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		s := strings.TrimSpace(sc.Text())
		if s == "" {
			continue
		}
		v, err := strconv.ParseInt(s, 10, 32)
		if err != nil && !errors.Is(err, strconv.ErrRange) {
			return nil, fmt.Errorf("graphio: partition line %d: %q is not a block id", line, s)
		}
		if err != nil || v < 0 || v >= int64(k) {
			return nil, fmt.Errorf("%w: partition line %d: block %s outside [0, %d)", core.ErrInvalidConfig, line, s, k)
		}
		if entries++; entries <= n {
			blocks = append(blocks, int32(v))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if entries != n {
		return nil, fmt.Errorf("graphio: partition has %d entries, graph has %d nodes", entries, n)
	}
	return blocks, nil
}

// WritePartition writes blocks in the partition text format: one decimal
// block id per line. It is the one encoding of a partition — kappa -out,
// kappa worker -out and the job API's result body — and it returns the
// first write error, so a full disk fails the command instead of leaving a
// truncated file behind a zero exit.
func WritePartition(w io.Writer, blocks []int32) error {
	const maxLine = len("-2147483648\n")
	buf := make([]byte, 0, min(4*len(blocks), 64<<10)+maxLine)
	for _, b := range blocks {
		buf = strconv.AppendInt(buf, int64(b), 10)
		buf = append(buf, '\n')
		if len(buf) > cap(buf)-maxLine {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}
