package main

import (
	"bufio"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
)

// The committed digests are the outputs the workloads must reproduce
// byte for byte: the rendered paper tables, and the jade-metrics/v1
// report of every replay-sweep grid cell. They were
// recorded at fan-out width 2 and are identical at width 1 (the test
// suite checks both).
//
//go:embed digests/*.txt
var digestFS embed.FS

// digest is a short content hash: 64 bits of SHA-256, in hex.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// loadDigests reads one committed "key digest" file.
func loadDigests(name string) (map[string]string, error) {
	f, err := digestFS.Open("digests/" + name + ".txt")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, d, ok := strings.Cut(strings.TrimSpace(sc.Text()), " ")
		if !ok {
			continue
		}
		out[key] = d
	}
	return out, sc.Err()
}

// checker compares produced digests against the expected ones; a key
// with no expected digest is a mismatch too. The first few mismatches
// are printed on standard error.
type checker struct {
	want map[string]string
}

var mismatches atomic.Int64

func (c checker) ok(key string, got string) bool {
	w, found := c.want[key]
	if found && w == got {
		return true
	}
	if mismatches.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "jadeperf: digest mismatch for %s: got %s, want %q\n", key, got, w)
	}
	return false
}

// writeDigests saves a digest file under dir, keys sorted.
func writeDigests(dir, name string, d map[string]string) error {
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, d[k])
	}
	return os.WriteFile(filepath.Join(dir, name+".txt"), []byte(b.String()), 0o644)
}

// regenerateDigests recomputes both digest files into ./digests; run it
// from the jadeperf directory after a change that is meant to alter
// the simulator's output.
func regenerateDigests() error {
	tables, err := tableDigests()
	if err != nil {
		return err
	}
	if err := writeDigests("digests", "paper-tables", tables); err != nil {
		return err
	}
	cells, err := gridDigests()
	if err != nil {
		return err
	}
	return writeDigests("digests", "replay-sweep", cells)
}
