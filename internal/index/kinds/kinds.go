// Package kinds is the one table of the paper's four index structures
// (Table 1): for each, the name its -structure flag takes, its figure label,
// its synchronisation scheme and its constructor. The configuration
// process, the simulator, the command line and the durable adapter all read
// it, so a structure is added in one place. It is a package of its own
// because every structure imports package index.
package kinds

import (
	"fmt"
	"strings"

	"robustconf/internal/index"
	"robustconf/internal/index/btree"
	"robustconf/internal/index/bwtree"
	"robustconf/internal/index/fptree"
	"robustconf/internal/index/hashmap"
)

// Kind selects one of the four index structures.
type Kind int

const (
	BTree Kind = iota
	FPTree
	BWTree
	HashMap
)

// All lists the structures in the paper's figure order.
var All = []Kind{FPTree, BWTree, HashMap, BTree}

var table = [...]struct {
	flag, label string
	scheme      index.Scheme
	build       func() index.Index
}{
	BTree:   {"btree", "B-Tree", index.SchemeAtomicRecord, func() index.Index { return btree.New() }},
	FPTree:  {"fptree", "FP-Tree", index.SchemeHTM, func() index.Index { return fptree.New() }},
	BWTree:  {"bwtree", "BW-Tree", index.SchemeCOW, func() index.Index { return bwtree.New() }},
	HashMap: {"hashmap", "Hash Map", index.SchemeBucketRW, func() index.Index { return hashmap.New() }},
}

// Flag returns the name the -structure flag takes for the structure.
func (k Kind) Flag() string { return table[k].flag }

// Name returns the figure label of the structure.
func (k Kind) Name() string { return table[k].label }

// Scheme returns the synchronisation scheme of the structure.
func (k Kind) Scheme() index.Scheme { return table[k].scheme }

// New builds an empty instance of the structure.
func (k Kind) New() index.Index { return table[k].build() }

// Flags lists every -structure name, comma separated, in figure order.
func Flags() string {
	names := make([]string, len(All))
	for i, k := range All {
		names[i] = k.Flag()
	}
	return strings.Join(names, ", ")
}

// Parse returns the kind whose -structure name is s.
func Parse(s string) (Kind, error) {
	for _, k := range All {
		if k.Flag() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown structure %q: want one of %s", s, Flags())
}

// String returns the -structure name, so a *Kind is a flag.Value.
func (k Kind) String() string { return k.Flag() }

// Set parses a -structure name into k.
func (k *Kind) Set(s string) error {
	v, err := Parse(s)
	if err == nil {
		*k = v
	}
	return err
}
