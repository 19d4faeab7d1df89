package multigraph

import (
	"fmt"
	"strings"
)

// String renders the multigraph compactly, one node per line:
// "v3: {1},{1,2},{2}".
func (m *Multigraph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "M(DBL_%d) |W|=%d horizon=%d\n", m.k, m.w, m.horizon)
	for v := 0; v < m.w; v++ {
		fmt.Fprintf(&sb, "  v%d:", v)
		for r, ls := range m.row(v) {
			if r > 0 {
				sb.WriteByte(',')
			}
			sb.WriteByte(' ')
			sb.WriteString(ls.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
