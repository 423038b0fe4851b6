package plan_test

import (
	"bytes"
	"fmt"
	"testing"

	"mpq/internal/baseline"
	"mpq/internal/cloud"
	"mpq/internal/core"
	"mpq/internal/geometry"
	"mpq/internal/plan"
	"mpq/internal/workload"
)

// fmtString is a frozen copy of the fmt-based renderer String used to
// be; the one-pass AppendString must reproduce it byte for byte, since
// plan names are part of the serving protocol.
func fmtString(n *plan.Node) string {
	if n.IsScan() {
		return fmt.Sprintf("%s(T%d)", n.Op, int(n.Table)+1)
	}
	return fmt.Sprintf("%s(%s, %s)", n.Op, fmtString(n.Left), fmtString(n.Right))
}

// TestStringMatchesFmtRenderer renders every bushy plan of generated
// chain, star, cycle and clique workloads both ways.
func TestStringMatchesFmtRenderer(t *testing.T) {
	for _, shape := range []workload.Shape{workload.Chain, workload.Star, workload.Cycle, workload.Clique} {
		schema, err := workload.Generate(workload.Config{Tables: 4, Params: 1, Shape: shape, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		ctx := geometry.NewContext()
		model, err := cloud.NewModel(schema, cloud.DefaultConfig(), ctx)
		if err != nil {
			t.Fatal(err)
		}
		plans := baseline.EnumerateAll(schema, model, core.NewPWLAlgebra(ctx, 2), false)
		if len(plans) == 0 {
			t.Fatalf("%v: no plans enumerated", shape)
		}
		prefix := []byte("prefix:")
		for _, p := range plans {
			want := fmtString(p.Plan)
			if got := p.Plan.String(); got != want {
				t.Fatalf("%v: String() = %q, want %q", shape, got, want)
			}
			// AppendString extends dst without touching its contents.
			got := p.Plan.AppendString(append([]byte(nil), prefix...))
			if !bytes.Equal(got, append(append([]byte(nil), prefix...), want...)) {
				t.Fatalf("%v: AppendString = %q, want prefix + %q", shape, got, want)
			}
		}
	}
	// Table numbers past one digit and operator names with punctuation.
	n := plan.Join("a<b>", plan.Scan(11, "s\"q"), plan.Join("h", plan.Scan(0, ""), plan.Scan(99, "x")))
	if got, want := n.String(), fmtString(n); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
