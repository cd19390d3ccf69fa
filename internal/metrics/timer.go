package metrics

import (
	"math"
	"sync/atomic"
	"time"
)

// Timer is a percentile-capable latency histogram, the package's one
// duration type. It records observations into fine-grained exponential
// buckets (timerPerDecade per decade between 1µs and 1000s) so p50/p95/p99
// can be read back with a bounded relative error of about ±6% — tight
// enough that a 263ns cached point query and a multi-second cold DAG
// inference land ten decades of buckets apart.
//
// Observations are lock-free: one atomic add into the bucket array plus
// atomic count/sum/max updates, so the request path never serializes on a
// mutex even with many goroutines timing concurrently.
type Timer struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
	buckets [timerBuckets]atomic.Int64
}

const (
	// timerMinNS is the lower edge of the first finite bucket: durations
	// at or below 1µs share the underflow bucket (they are all "free" at
	// serving granularity).
	timerMinNS = 1e3
	// timerPerDecade buckets per factor-of-ten gives bucket boundaries at
	// ratio 10^(1/20) ≈ 1.122; reporting the geometric bucket midpoint
	// bounds the quantile's relative error by 10^(1/40)-1 ≈ 5.9%.
	timerPerDecade = 20
	// timerDecades spans 1µs .. 1000s.
	timerDecades = 9
	// timerBuckets = underflow + finite buckets + overflow.
	timerBuckets = 1 + timerPerDecade*timerDecades + 1
)

// timerIndex maps a duration to its bucket.
func timerIndex(d time.Duration) int {
	ns := float64(d.Nanoseconds())
	if ns <= timerMinNS {
		return 0
	}
	i := 1 + int(math.Log10(ns/timerMinNS)*timerPerDecade)
	if i >= timerBuckets-1 {
		return timerBuckets - 1
	}
	return i
}

// timerBucketMidNS returns the geometric midpoint of bucket i in
// nanoseconds (the value reported for quantiles landing in it).
func timerBucketMidNS(i int) float64 {
	switch {
	case i <= 0:
		return timerMinNS
	case i >= timerBuckets-1:
		return timerMinNS * math.Pow(10, timerDecades)
	}
	// Bucket i covers (10^((i-1)/P), 10^(i/P)] · timerMinNS; midpoint at
	// exponent (i-0.5)/P.
	return timerMinNS * math.Pow(10, (float64(i)-0.5)/timerPerDecade)
}

// Observe records one duration (negatives clamp to zero).
func (t *Timer) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.count.Add(1)
	t.sum.Add(int64(d))
	for {
		cur := t.max.Load()
		if int64(d) <= cur || t.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	t.buckets[timerIndex(d)].Add(1)
}

// Count returns the number of observations.
func (t *Timer) Count() int64 { return t.count.Load() }

// Quantile returns an estimate of the q-quantile (0 < q <= 1) of all
// observations so far, or 0 when nothing was observed. Concurrent
// observations may skew an in-flight read by at most the races' own
// durations — fine for monitoring, which is the only caller.
func (t *Timer) Quantile(q float64) time.Duration {
	n := t.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < timerBuckets; i++ {
		cum += t.buckets[i].Load()
		if cum >= rank {
			if i == timerBuckets-1 {
				// Overflow bucket: the midpoint is meaningless; the
				// observed maximum is the only honest answer.
				return time.Duration(t.max.Load())
			}
			mid := time.Duration(timerBucketMidNS(i))
			// Never report a quantile above the observed maximum: the top
			// bucket's midpoint can exceed it.
			if max := time.Duration(t.max.Load()); mid > max {
				return max
			}
			return mid
		}
	}
	return time.Duration(t.max.Load())
}

// TimerSnapshot is a point-in-time, JSON-encodable timer view. All
// durations are reported in milliseconds; the percentile fields are the
// JSON face of Quantile.
type TimerSnapshot struct {
	Count  int64   `json:"count"`
	SumMS  float64 `json:"sum_ms"`
	MeanMS float64 `json:"mean_ms"`
	MaxMS  float64 `json:"max_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// Snapshot returns the current timer state with p50/p95/p99.
func (t *Timer) Snapshot() TimerSnapshot {
	n := t.count.Load()
	s := TimerSnapshot{
		Count: n,
		SumMS: float64(t.sum.Load()) / float64(time.Millisecond),
		MaxMS: float64(t.max.Load()) / float64(time.Millisecond),
	}
	if n == 0 {
		return s
	}
	s.MeanMS = s.SumMS / float64(n)
	s.P50MS = float64(t.Quantile(0.50)) / float64(time.Millisecond)
	s.P95MS = float64(t.Quantile(0.95)) / float64(time.Millisecond)
	s.P99MS = float64(t.Quantile(0.99)) / float64(time.Millisecond)
	return s
}
