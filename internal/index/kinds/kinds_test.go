package kinds

import (
	"strings"
	"testing"
)

// TestTable pins every row against the structure it builds: the label and
// the scheme live both in the row and in the structure's own methods, and
// this keeps the two from drifting apart.
func TestTable(t *testing.T) {
	if len(All) != len(table) {
		t.Fatalf("All has %d kinds, the table %d rows", len(All), len(table))
	}
	seen := map[Kind]bool{}
	for _, k := range All {
		if seen[k] {
			t.Errorf("%s appears twice in All", k.Name())
		}
		seen[k] = true
		idx := k.New()
		if idx.Name() != k.Name() {
			t.Errorf("%s builds a structure named %q, the row says %q", k.Flag(), idx.Name(), k.Name())
		}
		if idx.Scheme() != k.Scheme() {
			t.Errorf("%s builds a structure with scheme %v, the row says %v", k.Flag(), idx.Scheme(), k.Scheme())
		}
		if got, err := Parse(k.Flag()); err != nil || got != k {
			t.Errorf("Parse(%q) = %v, %v; want %v", k.Flag(), got, err, k)
		}
	}
	_, err := Parse("nope")
	if err == nil {
		t.Fatal(`Parse("nope") accepted`)
	}
	for _, k := range All {
		if !strings.Contains(err.Error(), k.Flag()) {
			t.Errorf("Parse error %q does not name %s", err, k.Flag())
		}
	}
}
