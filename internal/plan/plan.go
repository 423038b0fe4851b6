// Package plan represents query plans: operator trees that specify the
// join order and the operators executing scan and join operations
// (Section 2 of the paper).
package plan

import (
	"fmt"
	"strconv"
	"strings"

	"mpq/internal/catalog"
)

// Node is a query plan node: either a scan of a base table or a join of
// two sub-plans with a named operator. The paper's Combine(p1, p2, o)
// corresponds to Join(o, p1, p2).
type Node struct {
	// Set is the set of base tables joined by this plan.
	Set catalog.TableSet
	// Op names the operator executing this node.
	Op string
	// Table is the scanned table (scan nodes only).
	Table catalog.TableID
	// Left and Right are the sub-plans (join nodes only).
	Left, Right *Node
}

// Scan builds a scan plan for table t using the named scan operator.
func Scan(t catalog.TableID, op string) *Node {
	return &Node{Set: catalog.SetOf(t), Op: op, Table: t}
}

// Join combines two plans joining disjoint table sets with the named
// join operator (the paper's Combine function).
func Join(op string, left, right *Node) *Node {
	if !left.Set.Intersect(right.Set).IsEmpty() {
		panic(fmt.Sprintf("plan: joining overlapping table sets %v and %v", left.Set, right.Set))
	}
	return &Node{Set: left.Set.Union(right.Set), Op: op, Left: left, Right: right}
}

// IsScan reports whether the node scans a base table.
func (n *Node) IsScan() bool { return n.Left == nil }

// Operators counts the operators in the plan tree.
func (n *Node) Operators() int {
	if n.IsScan() {
		return 1
	}
	return 1 + n.Left.Operators() + n.Right.Operators()
}

// String renders the plan as a compact expression, e.g.
// "hash(idxscan(T1), scan(T2))".
func (n *Node) String() string { return string(n.AppendString(nil)) }

// AppendString appends the String rendering of the plan to dst in one
// pass over the tree and returns the extended slice.
func (n *Node) AppendString(dst []byte) []byte {
	dst = append(dst, n.Op...)
	dst = append(dst, '(')
	if n.IsScan() {
		dst = append(dst, 'T')
		dst = strconv.AppendInt(dst, int64(n.Table)+1, 10)
	} else {
		dst = n.Left.AppendString(dst)
		dst = append(dst, ", "...)
		dst = n.Right.AppendString(dst)
	}
	return append(dst, ')')
}

// Explain renders an indented operator tree for human consumption.
func (n *Node) Explain() string {
	var sb strings.Builder
	n.explain(&sb, 0)
	return sb.String()
}

func (n *Node) explain(sb *strings.Builder, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	if n.IsScan() {
		fmt.Fprintf(sb, "%s on T%d\n", n.Op, int(n.Table)+1)
		return
	}
	fmt.Fprintf(sb, "%s %v\n", n.Op, n.Set)
	n.Left.explain(sb, depth+1)
	n.Right.explain(sb, depth+1)
}

// Shape returns a canonical string identifying the tree structure and
// operators, used to detect duplicate plans in tests.
func (n *Node) Shape() string { return n.String() }
