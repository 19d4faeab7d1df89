package multigraph

import (
	"strings"
	"testing"
)

func TestStringRendering(t *testing.T) {
	m, err := New(2, [][]LabelSet{{SetOf(1), SetOf(1, 2)}})
	if err != nil {
		t.Fatal(err)
	}
	out := m.String()
	for _, want := range []string{"M(DBL_2) |W|=1 horizon=2", "v0: {1}, {1,2}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String missing %q:\n%s", want, out)
		}
	}
}
