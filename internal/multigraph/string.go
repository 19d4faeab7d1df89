package multigraph

import (
	"fmt"
	"strings"
)

// String renders the multigraph compactly, one node per line:
// "v3: {1},{1,2},{2}".
func (m *Multigraph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "M(DBL_%d) |W|=%d horizon=%d\n", m.k, len(m.labels), m.horizon)
	for v, row := range m.labels {
		fmt.Fprintf(&sb, "  v%d:", v)
		for r, ls := range row {
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
