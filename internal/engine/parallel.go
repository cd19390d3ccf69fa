package engine

import (
	"context"
	"math"
	"math/rand"
	"sync"

	"pxml/internal/enumerate"
	"pxml/internal/govern"
	"pxml/internal/model"
	"pxml/internal/pxql"
)

// BatchResult pairs one statement of a batch with its outcome.
type BatchResult struct {
	Result *pxql.Result
	Err    error
}

// acquire takes a worker-pool slot, or reports the context error if the
// caller is cancelled first. A free slot is taken without asking ctx for
// its Done channel, which a lazy request deadline arms a timer for.
func (e *Engine) acquire(ctx context.Context) error {
	select {
	case e.sem <- struct{}{}:
		return nil
	default:
	}
	select {
	case e.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (e *Engine) release() { <-e.sem }

// RunBatch evaluates independent statements concurrently over the bounded
// worker pool, returning one BatchResult per statement in input order.
// Statements queued behind a full pool observe cancellation while waiting.
func (e *Engine) RunBatch(ctx context.Context, statements []string) []BatchResult {
	out := make([]BatchResult, len(statements))
	// Warm the shared structures once up front so concurrent statements
	// don't all count a miss racing the same builder.
	if err := e.Warm(ctx); err != nil && ctx.Err() != nil {
		for i := range out {
			out[i] = BatchResult{Err: ctx.Err()}
		}
		return out
	}
	var wg sync.WaitGroup
	for i, stmt := range statements {
		wg.Add(1)
		go func(i int, stmt string) {
			defer wg.Done()
			if err := e.acquire(ctx); err != nil {
				out[i] = BatchResult{Err: err}
				return
			}
			defer e.release()
			// acquire's select can win the slot even when ctx is already
			// done; re-check so a cancelled batch stops draining the queue
			// into fresh evaluations.
			if err := ctx.Err(); err != nil {
				out[i] = BatchResult{Err: err}
				return
			}
			res, err := e.Run(ctx, stmt)
			out[i] = BatchResult{Result: res, Err: err}
		}(i, stmt)
	}
	wg.Wait()
	return out
}

// estimateShards fixes how a Monte-Carlo estimate splits across the pool.
// A constant (independent of the worker bound) keeps the sharded seed
// sequence — and therefore the estimate — deterministic on any machine.
const estimateShards = 8

// estimate runs an ESTIMATE statement's forward sampling: n samples of the
// possible-world predicate "some object satisfies q.Path" (estimate-exists)
// or "q.Object satisfies q.Path" (estimate-point). From estimateShards
// samples up the work is sharded over the worker pool: shard i draws its
// share from the deterministic seed 1+i and the shard hit counts combine
// exactly; fewer run as one stream from seed 1. The shards share the
// statement's governor (evaluate always installs one), so the step budget
// bounds the total sample work however it is split, and its poll is what
// stops them on cancellation.
func (e *Engine) estimate(ctx context.Context, q pxql.Query) (enumerate.Estimate, error) {
	n := q.Top
	pred := func(s *model.Instance) bool { return q.Path.Matches(s.Graph(), q.Object) }
	if q.Op == "estimate-exists" {
		pred = func(s *model.Instance) bool { return len(q.Path.Targets(s.Graph())) > 0 }
	}
	if n < estimateShards {
		return enumerate.EstimateProb(ctx, e.pi, pred, n, rand.New(rand.NewSource(1)))
	}
	var (
		wg   sync.WaitGroup
		hits [estimateShards]int
		errs [estimateShards]error
	)
	for shard := 0; shard < estimateShards; shard++ {
		cnt := n / estimateShards
		if shard == 0 {
			cnt += n % estimateShards
		}
		wg.Add(1)
		go func(shard, cnt int) {
			defer wg.Done()
			hits[shard], errs[shard] = e.sampleShard(ctx, pred, int64(1+shard), cnt)
		}(shard, cnt)
	}
	wg.Wait()
	total := 0
	for shard, err := range errs {
		if err != nil {
			return enumerate.Estimate{}, err
		}
		total += hits[shard]
	}
	pr := float64(total) / float64(n)
	return enumerate.Estimate{
		P:       pr,
		StdErr:  math.Sqrt(pr * (1 - pr) / float64(n)),
		Samples: n,
	}, nil
}

// sampleShard draws cnt worlds from one seeded stream on a pool slot and
// counts those satisfying pred, charging each sample's walk to the
// statement's governor.
func (e *Engine) sampleShard(ctx context.Context, pred func(*model.Instance) bool, seed int64, cnt int) (int, error) {
	if err := e.acquire(ctx); err != nil {
		return 0, err
	}
	defer e.release()
	gov := govern.From(ctx)
	perSample := int64(e.pi.NumObjects())
	if perSample < 1 {
		perSample = 1
	}
	r := rand.New(rand.NewSource(seed))
	hits := 0
	for i := 0; i < cnt; i++ {
		if err := gov.Step(perSample); err != nil {
			return 0, err
		}
		s, err := enumerate.Sample(e.pi, r)
		if err != nil {
			return 0, err
		}
		if pred(s) {
			hits++
		}
	}
	return hits, nil
}
