package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// rawgoAnalyzer rejects raw concurrency — bare go statements,
// sync.WaitGroup, channel creation/sends/receives/ranges and select —
// everywhere in internal/ except the sanctioned packages below.
// parallel's chunk-ordered primitives (ScatterReduce, OrderedFold) and
// its order-free scatter of exact counts (ScatterCount)
// are what make results bit-identical at any GOMAXPROCS/worker count;
// batch's inference server is the one sanctioned channel protocol;
// serve is the daemon control plane, whose goroutines manage job
// lifecycles and never touch a physics reduction; dist is the lease coordinator/worker protocol, whose
// concurrency schedules cells across processes but never reorders a
// result (the journal and input-order assembly pin that). A bare
// goroutine anywhere else is a reduction whose order nobody pinned.
var rawgoAnalyzer = &analyzer{
	name: "rawgo",
	doc:  "raw concurrency (go, sync.WaitGroup, channels, select) outside the sanctioned packages (internal/parallel, internal/batch, internal/serve, internal/dist)",
	run:  runRawgo,
}

// rawgoAllowed names the packages sanctioned to use raw concurrency
// primitives directly.
var rawgoAllowed = map[string]bool{
	"internal/parallel": true,
	"internal/batch":    true,
	"internal/serve":    true,
	"internal/dist":     true,
}

func runRawgo(p *pass) {
	if !inInternal(p.rel) || rawgoAllowed[p.rel] {
		return
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			if what := concurrencyConstruct(p.info, n); what != "" {
				p.reportf(n.Pos(),
					"%s outside the sanctioned concurrency packages: hot-path concurrency must go through the chunk-ordered primitives", what)
			}
			return true
		})
	}
}

// concurrencyConstruct classifies n as a raw concurrency construct,
// returning a description or "" when n is not one. The raw-concurrency
// analyzer reports these; the -race-packages derivation uses the same
// classifier to find the packages that define concurrency.
func concurrencyConstruct(info *types.Info, n ast.Node) string {
	switch v := n.(type) {
	case *ast.GoStmt:
		return "bare go statement"
	case *ast.SelectStmt:
		return "select statement"
	case *ast.SendStmt:
		return "channel send"
	case *ast.UnaryExpr:
		if v.Op == token.ARROW {
			return "channel receive"
		}
	case *ast.ChanType:
		return "channel type"
	case *ast.RangeStmt:
		if tv, ok := info.Types[v.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				return "range over a channel"
			}
		}
	case *ast.SelectorExpr:
		if tn, ok := info.Uses[v.Sel].(*types.TypeName); ok &&
			tn.Pkg() != nil && tn.Pkg().Path() == "sync" && tn.Name() == "WaitGroup" {
			return "sync.WaitGroup"
		}
	}
	return ""
}
