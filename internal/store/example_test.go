package store_test

import (
	"fmt"
	"os"
	"path/filepath"

	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/reference"
	"mstadvice/internal/store"
)

// ExampleSave persists an oracle run — graph, root and per-node advice
// — as one snapshot file (atomic rename, CRC-protected).
func ExampleSave() {
	g, err := graph.NewBuilder(4).
		AddEdge(0, 1, 1).
		AddEdge(1, 2, 2).
		AddEdge(2, 3, 3).
		AddEdge(3, 0, 4).
		Build()
	if err != nil {
		panic(err)
	}
	advice, err := core.BuildAdvice(g, 0, core.DefaultCap)
	if err != nil {
		panic(err)
	}

	dir, err := os.MkdirTemp("", "store-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "run.mstadv")

	if err := store.Save(path, &store.Snapshot{Graph: g, Root: 0, Cap: core.DefaultCap, Advice: advice}); err != nil {
		panic(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		panic(err)
	}
	fmt.Println("saved nodes:", g.N())
	fmt.Println("file non-empty:", st.Size() > 0)
	// Output:
	// saved nodes: 4
	// file non-empty: true
}

// ExampleLoad reads a snapshot back; the decoded graph and advice are
// byte-identical to what was saved (the golden tests pin this across
// every family).
func ExampleLoad() {
	g, err := graph.NewBuilder(3).
		AddEdge(0, 1, 5).
		AddEdge(1, 2, 3).
		AddEdge(0, 2, 8).
		Build()
	if err != nil {
		panic(err)
	}
	advice, err := core.BuildAdvice(g, 2, core.DefaultCap)
	if err != nil {
		panic(err)
	}

	dir, err := os.MkdirTemp("", "store-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "run.mstadv")
	if err := store.Save(path, &store.Snapshot{Graph: g, Root: 2, Cap: core.DefaultCap, Advice: advice}); err != nil {
		panic(err)
	}

	snap, err := store.Load(path)
	if err != nil {
		panic(err)
	}
	identical := reference.Equal(g, snap.Graph) == nil
	for u := range advice {
		identical = identical && advice[u].Equal(snap.Advice[u])
	}
	fmt.Println("root:", snap.Root)
	fmt.Println("round trip byte-identical:", identical)
	// Output:
	// root: 2
	// round trip byte-identical: true
}
