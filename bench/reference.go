package main

import (
	goruntime "runtime"
	"slices"
	"time"
)

// The host-speed reference. On a shared host the machine's speed drifts by
// tens of percent over minutes, and every workload drifts with it: two
// sets of ten runs of the same code, 13 minutes apart, differed by 25-43%
// on every workload. So the parent times this fixed work, which uses
// nothing from the repository, just before and just after each sample's
// process, and the benchmark reports the sample's times scaled by
// refNominal over the mean of the two readings. Over 15 minutes of drift
// this cut the spread of five-sample medians from 0.09-0.17 to 0.05-0.09.
// Timed inside the sample's process, the reference raised the peak RSS of
// the small workloads from 12 to 27 MB.
//
// refNominal is the reference's typical time on the two-core Xeon the
// bounds were calibrated on, so a reported second is near a measured one
// there. Changing it rescales every reported time.
const refNominal = 0.05

type refNode struct {
	next *refNode
	key  uint64
	vals []uint32
}

var refSink uint64

// referenceOnce allocates a linked list of small objects, indexes part of
// it in a map and sorts its keys: the allocation, GC, pointer-chasing and
// branchy work the workloads do, about 50 ms of it.
func referenceOnce() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	index := make(map[uint64]*refNode)
	var head *refNode
	for i := 0; i < 1<<17; i++ {
		n := &refNode{next: head, key: next(), vals: make([]uint32, 1+i%7)}
		index[n.key%(1<<15)] = n
		head = n
	}
	keys := make([]uint64, 0, 1<<18)
	for n := head; n != nil; n = n.next {
		keys = append(keys, n.key^uint64(len(n.vals)), next())
	}
	slices.Sort(keys)
	refSink = keys[len(keys)/2] + uint64(len(index))
	return time.Since(start).Seconds()
}

// reference returns the median of three timings of referenceOnce, from a
// freshly collected heap.
func reference() float64 {
	goruntime.GC()
	return median([]float64{referenceOnce(), referenceOnce(), referenceOnce()})
}

// scale is the factor that turns a sample's measured seconds into
// reference-normalized seconds.
func (s sample) scale() float64 { return refNominal / s.RefS }
