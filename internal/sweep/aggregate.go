package sweep

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Dist is a distribution summary of per-trial round counts, the shape
// every figure table in this reproduction is built from.
type Dist struct {
	// Trials is the sample size, including failures.
	Trials int
	// Failures counts trials that never resolved (Rounds < 0).
	Failures int
	// Mean is the sample mean over resolved trials.
	Mean float64
	// Min and Max bound the resolved sample.
	Min, Max int
	// P50, P90, P99 are percentiles of the resolved sample.
	P50, P90, P99 int
}

// Distribution summarizes raw round counts; a negative count marks a
// failed trial. It is the single definition of the repository's summary
// statistics — the S1 study and the figure tables are computed through it.
//
// Percentile convention: Pxx is the sorted resolved sample's element at
// index ⌊xx·(len-1)/100⌋, computed in exact integer arithmetic (the
// nearest-rank-below rule; float multiplication would under-index exact
// ranks — 0.99 has no finite binary representation, so 0.99*100 truncates
// to 98). Edge cases: with no resolved trials Mean, Min, Max, and every
// percentile are 0 (Failures still counts); with one resolved trial every
// percentile equals that value.
func Distribution(rounds []int) Dist {
	d := Dist{Trials: len(rounds), Min: math.MaxInt}
	var ok []int
	total := 0
	for _, r := range rounds {
		if r < 0 {
			d.Failures++
			continue
		}
		ok = append(ok, r)
		total += r
		if r < d.Min {
			d.Min = r
		}
		if r > d.Max {
			d.Max = r
		}
	}
	if len(ok) == 0 {
		d.Min = 0
		return d
	}
	d.Mean = float64(total) / float64(len(ok))
	sort.Ints(ok)
	q := func(pNum int) int {
		return ok[pNum*(len(ok)-1)/100]
	}
	d.P50, d.P90, d.P99 = q(50), q(90), q(99)
	return d
}

// GroupStat is the aggregated distribution of one (protocol, size) cell of
// a campaign grid.
type GroupStat struct {
	Proto string
	N     int
	Dist
}

// Aggregate folds completed results into per-(protocol, size) distribution
// rows, sorted by protocol then size. The fold is order-independent: the
// same set of journal rows aggregates identically whether it was produced
// by one uninterrupted run or stitched together across resumes.
func Aggregate(results []Result) []GroupStat {
	type cell struct {
		proto string
		n     int
	}
	rounds := make(map[cell][]int)
	for _, r := range results {
		c := cell{r.Proto, r.N}
		if r.Failed {
			rounds[c] = append(rounds[c], -1)
		} else {
			rounds[c] = append(rounds[c], r.Rounds)
		}
	}
	cells := make([]cell, 0, len(rounds))
	for c := range rounds {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].proto != cells[j].proto {
			return cells[i].proto < cells[j].proto
		}
		return cells[i].n < cells[j].n
	})
	stats := make([]GroupStat, 0, len(cells))
	for _, c := range cells {
		// Trials within a cell arrive in scheduling order; sort them so
		// the distribution input is canonical (it is order-insensitive
		// anyway, but canonical inputs keep the fold auditable).
		rs := rounds[c]
		sort.Ints(rs)
		stats = append(stats, GroupStat{Proto: c.proto, N: c.n, Dist: Distribution(rs)})
	}
	return stats
}

// FormatTable renders group stats as an aligned text table, carrying the
// same columns in the same order as FormatCSV so the two renderings of a
// campaign never disagree on what was measured.
func FormatTable(stats []GroupStat) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s  %8s  %6s  %8s  %5s  %5s  %5s  %5s  %5s  %8s\n",
		"proto", "n", "trials", "mean", "min", "p50", "p90", "p99", "max", "failures")
	for _, s := range stats {
		fmt.Fprintf(&sb, "%-16s  %8d  %6d  %8.2f  %5d  %5d  %5d  %5d  %5d  %8d\n",
			s.Proto, s.N, s.Trials, s.Mean, s.Min, s.P50, s.P90, s.P99, s.Max, s.Failures)
	}
	return sb.String()
}

// FormatCSV renders group stats as CSV for downstream plotting.
func FormatCSV(stats []GroupStat) string {
	var sb strings.Builder
	sb.WriteString("proto,n,trials,mean,min,p50,p90,p99,max,failures\n")
	for _, s := range stats {
		fmt.Fprintf(&sb, "%s,%d,%d,%.3f,%d,%d,%d,%d,%d,%d\n",
			s.Proto, s.N, s.Trials, s.Mean, s.Min, s.P50, s.P90, s.P99, s.Max, s.Failures)
	}
	return sb.String()
}
