package graph

import (
	"bytes"
	"os"
	"testing"
)

// FuzzLoadEdgeList fuzzes the edge-list loader with arbitrary file
// contents: no input may panic it, and every accepted input must come back
// as a graph whose external-ID table has one entry per node, in strictly
// ascending order (the dense remap's contract).
func FuzzLoadEdgeList(f *testing.F) {
	for _, name := range []string{"testdata/snap_tiny.txt", "testdata/dimacs_tiny.gr"} {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, seed := range []string{
		"",
		"1 2\n2 3 7\n",
		"p sp 3 2\ne 1 2 5\na 2 3\n",
		"1 1\n",
		"1 2 0\n",
		"-1 2\n",
		"9223372036854775807 0\n",
		"e\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, ids, err := LoadEdgeList(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(ids) != g.N() {
			t.Fatalf("len(ids) = %d for a graph of %d nodes", len(ids), g.N())
		}
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				t.Fatalf("ids not strictly ascending at %d: %d after %d", i, ids[i], ids[i-1])
			}
		}
	})
}
