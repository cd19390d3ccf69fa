// pxmlquery runs PXML algebra operations and probabilistic queries over an
// instance file.
//
// Operations (-op):
//
//	project   ancestor projection Λ_p; writes the resulting instance
//	single    single projection (root + matched objects)
//	descend   descendant projection (matched objects + their substructure)
//	select    selection σ(p = o); writes the conditioned instance and
//	          prints the condition probability
//	selectval selection σ(val(p) = v)
//	point     P(o ∈ p) — probabilistic point query
//	exists    P(∃o. o ∈ p)
//	valexists P(∃ leaf o ∈ p with val(o) = v)
//	probex    P(o exists) via Bayesian-network inference (works on DAGs)
//	marginals P(o exists) for every object (one pass; tree instances)
//	worlds    enumerate the possible worlds with probabilities
//	topk      the N most probable worlds (best-first; no full enumeration)
//	count     distribution of the number of objects satisfying -path
//
// Examples:
//
//	pxmlquery -op project -path R.book.author -o out.pxml inst.pxml
//	pxmlquery -op select  -path R.book -object B1 inst.pxml
//	pxmlquery -op point   -path R.book.author -object A1 inst.pxml
//	pxmlquery -op probex  -object A1 inst.pxml
//
// With -server, the positional argument names an instance in a running
// pxmld catalog instead of a file; it is fetched over HTTP and the
// operation runs locally. Transient failures — load shedding (429),
// overload or a degraded store (503), dropped connections — are retried
// with exponential backoff and jitter, honoring the server's
// Retry-After; -retries caps the attempts:
//
//	pxmlquery -server http://127.0.0.1:8080 -op exists -path R.book bib
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"pxml"
	"pxml/internal/apiv1"
	"pxml/internal/retry"
)

func main() {
	op := flag.String("op", "project", "operation: project|single|descend|select|selectval|point|exists|valexists|probex|marginals|worlds|topk|count")
	pathArg := flag.String("path", "", "path expression, e.g. R.book.author")
	object := flag.String("object", "", "object id (select/point/probex)")
	value := flag.String("value", "", "leaf value (selectval/valexists)")
	format := flag.String("format", "", "input format: text or json (default by extension)")
	out := flag.String("o", "", "output file for instance-valued results (default stdout)")
	outFormat := flag.String("oformat", "text", "output format: text or json")
	top := flag.Int("top", 10, "print at most this many worlds for -op worlds (0 = all)")
	timeout := flag.Duration("timeout", 0, "abort any operation, projections and selections included, after this long (0 = no limit)")
	serverURL := flag.String("server", "", "fetch the instance from this pxmld base URL; the positional argument becomes an instance name")
	retries := flag.Int("retries", 3, "with -server: retries on 429/503 and transient network errors (exponential backoff + jitter, honors Retry-After)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pxmlquery [flags] <instance-file>")
		fmt.Fprintln(os.Stderr, "       pxmlquery -server URL [flags] <instance-name>")
		os.Exit(2)
	}
	var pi *pxml.ProbInstance
	var err error
	if *serverURL != "" {
		pi, err = fetch(*serverURL, flag.Arg(0), *retries)
	} else {
		pi, err = load(flag.Arg(0), *format)
	}
	if err != nil {
		fatal(err)
	}
	eng := pxml.NewEngine(pi)
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var path pxml.Path
	if *pathArg != "" {
		path, err = pxml.ParsePath(*pathArg)
		if err != nil {
			fatal(err)
		}
	}

	writeResult := func(res *pxml.ProbInstance) {
		dst := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			dst = f
		}
		if *outFormat == "json" {
			err = pxml.EncodeJSON(dst, res)
		} else {
			err = pxml.EncodeText(dst, res)
		}
		if err != nil {
			fatal(err)
		}
	}

	switch *op {
	case "project", "single", "descend":
		requirePath(path)
		writeResult(exec(ctx, eng, pxml.PXQLQuery{Op: *op, Path: path}).Instance)
	case "select":
		requirePath(path)
		require(*object, "-object")
		res := exec(ctx, eng, pxml.PXQLQuery{Op: "select", Cond: pxml.ObjectCondition{Path: path, Object: *object}})
		fmt.Fprintf(os.Stderr, "P(%s = %s) = %.9f\n", path, *object, *res.Prob)
		writeResult(res.Instance)
	case "selectval":
		requirePath(path)
		require(*value, "-value")
		res := exec(ctx, eng, pxml.PXQLQuery{Op: "select", Cond: pxml.ValueCondition{Path: path, Value: *value}})
		fmt.Fprintf(os.Stderr, "P(val(%s) = %s) = %.9f\n", path, *value, *res.Prob)
		writeResult(res.Instance)
	case "point":
		requirePath(path)
		require(*object, "-object")
		// The engine routes tree instances through the Section 6 fast
		// path and DAGs through Bayesian-network inference.
		p, err := eng.ProbPoint(ctx, path, *object)
		if err != nil {
			fatal(err)
		}
		noteDAG(eng)
		fmt.Printf("%.9f\n", p)
	case "exists":
		requirePath(path)
		p, err := eng.ProbExists(ctx, path)
		if err != nil {
			fatal(err)
		}
		noteDAG(eng)
		fmt.Printf("%.9f\n", p)
	case "valexists":
		requirePath(path)
		require(*value, "-value")
		res := exec(ctx, eng, pxml.PXQLQuery{Op: "prob-value", Path: path, Value: *value})
		fmt.Printf("%.9f\n", *res.Prob)
	case "probex":
		require(*object, "-object")
		p, err := eng.ProbObject(ctx, *object)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%.9f\n", p)
	case "marginals":
		fmt.Println(exec(ctx, eng, pxml.PXQLQuery{Op: "marginals"}).Text)
	case "count":
		requirePath(path)
		// "E[count(p)] = e", then one "P(count=k) = pr" line per k.
		mean, dist, _ := strings.Cut(exec(ctx, eng, pxml.PXQLQuery{Op: "count", Path: path}).Text, "\n")
		fmt.Fprintln(os.Stderr, mean)
		for _, line := range strings.Split(dist, "\n") {
			k, pr, _ := strings.Cut(strings.TrimPrefix(line, "P(count="), ") = ")
			fmt.Printf("%s\t%s\n", k, pr)
		}
	case "topk":
		n := *top
		if n <= 0 {
			n = 10
		}
		fmt.Println(exec(ctx, eng, pxml.PXQLQuery{Op: "topk", Top: n}).Text)
	case "worlds":
		// "N worlds, total probability p", then one line per world.
		total, worlds, _ := strings.Cut(exec(ctx, eng, pxml.PXQLQuery{Op: "worlds", Top: *top}).Text, "\n")
		fmt.Fprintln(os.Stderr, total)
		fmt.Println(worlds)
	default:
		fatal(fmt.Errorf("unknown op %q", *op))
	}
}

// fetch pulls an instance out of a pxmld catalog over the v1 API,
// retrying transient failures (shed load, degraded/draining server,
// dropped connections) with backoff so a briefly overloaded daemon
// doesn't fail the query. Server errors arrive as the v1 envelope and
// are surfaced with their machine code.
func fetch(base, name string, retries int) (*pxml.ProbInstance, error) {
	policy := retry.Default.WithAttempts(retries + 1)
	policy.OnRetry = func(attempt int, wait time.Duration, cause error) {
		fmt.Fprintf(os.Stderr, "pxmlquery: fetch attempt %d failed (%v); retrying in %v\n", attempt, cause, wait)
	}
	url := strings.TrimRight(base, "/") + apiv1.Prefix + "/instances/" + name
	resp, err := policy.Get(context.Background(), nil, url)
	if err != nil {
		return nil, fmt.Errorf("fetching %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("fetching %s: %w", url, apiv1.ErrorFromBody(resp.StatusCode, msg))
	}
	if strings.Contains(resp.Header.Get("Content-Type"), "json") {
		return pxml.DecodeJSON(resp.Body)
	}
	return pxml.DecodeText(resp.Body)
}

func load(path, format string) (*pxml.ProbInstance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if format == "json" || (format == "" && strings.HasSuffix(path, ".json")) {
		return pxml.DecodeJSON(f)
	}
	return pxml.DecodeText(f)
}

// exec runs one parsed statement on the engine — under ctx, so -timeout
// bounds it, and under the engine's governor and panic isolation — and
// exits on failure.
func exec(ctx context.Context, eng *pxml.Engine, q pxml.PXQLQuery) *pxml.PXQLResult {
	res, err := eng.Exec(ctx, q)
	if err != nil {
		fatalHint(err)
	}
	return res
}

// noteDAG tells the user when the answer came from the network route.
func noteDAG(eng *pxml.Engine) {
	if !eng.IsTree() {
		fmt.Fprintln(os.Stderr, "note: DAG instance; answered via Bayesian-network inference")
	}
}

func requirePath(p pxml.Path) {
	if p.Root == "" {
		fatal(fmt.Errorf("missing -path"))
	}
}

func require(v, name string) {
	if v == "" {
		fatal(fmt.Errorf("missing %s", name))
	}
}

func fatalHint(err error) {
	if errors.Is(err, pxml.ErrNotTree) {
		fmt.Fprintln(os.Stderr, "pxmlquery: the instance's weak graph is a DAG; this operation's fast path needs a tree")
	}
	fatal(err)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pxmlquery:", err)
	os.Exit(1)
}
