package kernel

import (
	"fmt"
	"sort"

	"ilsim/internal/hsail"
)

// CFG is the analyzed control-flow graph of a kernel.
//
// Two consumers need it: the HSAIL simulator uses IPDom as the reconvergence
// point of each divergent branch (the immediate-post-dominator reconvergence
// stack of paper §III.C.1), and the finalizer uses the structural
// classification (Shapes) to linearize control flow with exec-mask
// predication instead of a reconvergence stack.
type CFG struct {
	Kernel *hsail.Kernel
	// Succs[b] lists successor block IDs. For conditional branches the
	// fall-through successor is listed first, then the taken target.
	Succs [][]int
	// Preds[b] lists predecessor block IDs.
	Preds [][]int
	// IDom[b] is the immediate dominator of block b (-1 for the entry).
	IDom []int
	// IPDom[b] is the immediate post-dominator of block b (-1 when the
	// block post-dominates every path to exit, i.e. exits directly).
	IPDom []int
	// BackEdge[b] is true when block b ends in a branch to itself or an
	// earlier dominator (a natural-loop latch).
	BackEdge []bool
	// Reducible reports whether every retreating edge is a back edge to a
	// dominator. The paper notes irreducible control flow "was not
	// encountered in our benchmarks"; the finalizer rejects it.
	Reducible bool
	// Shapes classifies every block that ends in a conditional branch.
	Shapes map[int]Shape
}

// ShapeBlocks returns the keys of Shapes in ascending block order. Code
// that allocates registers or emits instructions per shape must walk this,
// not the map, or its output changes from run to run.
func (g *CFG) ShapeBlocks() []int {
	bs := make([]int, 0, len(g.Shapes))
	for b := range g.Shapes {
		bs = append(bs, b)
	}
	sort.Ints(bs)
	return bs
}

// ShapeKind is the structured-control-flow classification of a conditional
// branch, used by the finalizer's if-conversion.
type ShapeKind uint8

// Shape kinds.
const (
	// ShapeIfThen is `cbr c, join` guarding a then-region: lanes where c
	// is TRUE skip the region [b+1, join).
	ShapeIfThen ShapeKind = iota
	// ShapeIfThenElse is `cbr c, else` where the then-region ends in an
	// unconditional branch to the join: lanes where c is TRUE take the
	// else-region.
	ShapeIfThenElse
	// ShapeLoopLatch is a backward `cbr c, header`: lanes where c is TRUE
	// iterate again (do-while latch).
	ShapeLoopLatch
)

// String names the shape kind.
func (k ShapeKind) String() string {
	switch k {
	case ShapeIfThen:
		return "if-then"
	case ShapeIfThenElse:
		return "if-then-else"
	case ShapeLoopLatch:
		return "loop-latch"
	}
	return fmt.Sprintf("ShapeKind(%d)", uint8(k))
}

// Shape describes one structured conditional branch.
type Shape struct {
	Kind ShapeKind
	// Branch is the block whose terminator is the classified cbr.
	Branch int
	// ThenStart/ThenEnd delimit the region executed by lanes NOT taking
	// the branch (half-open block range). Empty for loop latches.
	ThenStart, ThenEnd int
	// ElseStart/ElseEnd delimit the taken-lane region for if-then-else.
	ElseStart, ElseEnd int
	// Join is the block where both paths reconverge. For loop latches it
	// is the loop exit (fall-through of the latch).
	Join int
	// Header is the loop header for loop latches.
	Header int
}

// AnalyzeCFG validates the kernel's control flow and computes the analyses.
func AnalyzeCFG(k *hsail.Kernel) (*CFG, error) {
	n := len(k.Blocks)
	if n == 0 {
		return nil, fmt.Errorf("kernel %q: empty CFG", k.Name)
	}
	g := &CFG{
		Kernel: k,
		Succs:  make([][]int, n),
		Preds:  make([][]int, n),
		Shapes: make(map[int]Shape),
	}
	for bi, b := range k.Blocks {
		// Control transfers may appear only as terminators.
		for ii := range b.Insts {
			op := b.Insts[ii].Op
			isXfer := op == hsail.OpBr || op == hsail.OpCBr || op == hsail.OpRet
			if isXfer && ii != len(b.Insts)-1 {
				return nil, fmt.Errorf("kernel %q: BB%d: %s not at block end", k.Name, bi, op)
			}
		}
		term := terminator(b)
		switch {
		case term != nil && term.Op == hsail.OpRet:
			// no successors
		case term != nil && term.Op == hsail.OpBr:
			g.Succs[bi] = []int{int(term.Target)}
		case term != nil && term.Op == hsail.OpCBr:
			if bi+1 >= n {
				return nil, fmt.Errorf("kernel %q: BB%d: conditional branch with no fall-through block", k.Name, bi)
			}
			g.Succs[bi] = []int{bi + 1, int(term.Target)}
		default:
			if bi+1 >= n {
				return nil, fmt.Errorf("kernel %q: BB%d: final block does not end in ret", k.Name, bi)
			}
			g.Succs[bi] = []int{bi + 1}
		}
		for _, s := range g.Succs[bi] {
			g.Preds[s] = append(g.Preds[s], bi)
		}
	}
	if err := g.checkReachable(); err != nil {
		return nil, err
	}
	g.computeDominators()
	g.computePostDominators()
	g.classifyEdges()
	if err := g.classifyShapes(); err != nil {
		return nil, err
	}
	return g, nil
}

func terminator(b *hsail.Block) *hsail.Inst {
	if len(b.Insts) == 0 {
		return nil
	}
	return &b.Insts[len(b.Insts)-1]
}

func (g *CFG) checkReachable() error {
	seen := make([]bool, len(g.Succs))
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Succs[b] {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	for bi, ok := range seen {
		if !ok {
			return fmt.Errorf("kernel %q: BB%d is unreachable", g.Kernel.Name, bi)
		}
	}
	return nil
}

// postOrder returns a post-order numbering of the forward CFG from entry.
func (g *CFG) postOrder() []int {
	n := len(g.Succs)
	order := make([]int, 0, n)
	state := make([]uint8, n) // 0 unvisited, 1 on stack, 2 done
	type frame struct{ b, i int }
	stack := []frame{{0, 0}}
	state[0] = 1
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.i < len(g.Succs[f.b]) {
			s := g.Succs[f.b][f.i]
			f.i++
			if state[s] == 0 {
				state[s] = 1
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		state[f.b] = 2
		order = append(order, f.b)
		stack = stack[:len(stack)-1]
	}
	return order
}

// computeDominators runs the Cooper-Harvey-Kennedy iterative algorithm.
func (g *CFG) computeDominators() {
	n := len(g.Succs)
	po := g.postOrder()
	poNum := make([]int, n)
	for i, b := range po {
		poNum[b] = i
	}
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[0] = 0
	intersect := func(a, b int) int {
		for a != b {
			for poNum[a] < poNum[b] {
				a = idom[a]
			}
			for poNum[b] < poNum[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for i := len(po) - 1; i >= 0; i-- { // reverse post-order
			b := po[i]
			if b == 0 {
				continue
			}
			newIdom := -1
			for _, p := range g.Preds[b] {
				if idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	idom[0] = -1
	g.IDom = idom
}

// computePostDominators runs the same algorithm on the reverse CFG with a
// virtual exit joining every ret block.
func (g *CFG) computePostDominators() {
	n := len(g.Succs)
	exit := n // virtual exit node
	succs := make([][]int, n+1)
	preds := make([][]int, n+1)
	for b := 0; b < n; b++ {
		if len(g.Succs[b]) == 0 {
			succs[b] = []int{exit}
			preds[exit] = append(preds[exit], b)
		} else {
			succs[b] = g.Succs[b]
		}
		for _, s := range g.Succs[b] {
			preds[s] = append(preds[s], b)
		}
	}
	// Post-order of the REVERSE graph starting from exit.
	order := make([]int, 0, n+1)
	state := make([]uint8, n+1)
	type frame struct{ b, i int }
	stack := []frame{{exit, 0}}
	state[exit] = 1
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.i < len(preds[f.b]) {
			s := preds[f.b][f.i]
			f.i++
			if state[s] == 0 {
				state[s] = 1
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		state[f.b] = 2
		order = append(order, f.b)
		stack = stack[:len(stack)-1]
	}
	poNum := make([]int, n+1)
	for i := range poNum {
		poNum[i] = -1
	}
	for i, b := range order {
		poNum[b] = i
	}
	ipdom := make([]int, n+1)
	for i := range ipdom {
		ipdom[i] = -1
	}
	ipdom[exit] = exit
	intersect := func(a, b int) int {
		for a != b {
			for poNum[a] < poNum[b] {
				a = ipdom[a]
			}
			for poNum[b] < poNum[a] {
				b = ipdom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for i := len(order) - 1; i >= 0; i-- {
			b := order[i]
			if b == exit {
				continue
			}
			newIdom := -1
			for _, s := range succs[b] {
				if ipdom[s] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = s
				} else {
					newIdom = intersect(newIdom, s)
				}
			}
			if newIdom != -1 && ipdom[b] != newIdom {
				ipdom[b] = newIdom
				changed = true
			}
		}
	}
	g.IPDom = make([]int, n)
	for b := 0; b < n; b++ {
		if ipdom[b] == exit || ipdom[b] == -1 {
			g.IPDom[b] = -1
		} else {
			g.IPDom[b] = ipdom[b]
		}
	}
}

// dominates reports whether a dominates b in the forward CFG.
func (g *CFG) dominates(a, b int) bool {
	for b != -1 {
		if a == b {
			return true
		}
		b = g.IDom[b]
	}
	return false
}

// classifyEdges marks back edges and determines reducibility.
func (g *CFG) classifyEdges() {
	n := len(g.Succs)
	g.BackEdge = make([]bool, n)
	g.Reducible = true
	for b := 0; b < n; b++ {
		for _, s := range g.Succs[b] {
			if s <= b { // retreating in layout order
				if g.dominates(s, b) {
					g.BackEdge[b] = true
				} else {
					g.Reducible = false
				}
			}
		}
	}
}

// classifyShapes pattern-matches each conditional branch against the
// structured shapes the finalizer can if-convert. The builder's structured
// helpers emit exactly these shapes; hand-written CFGs must match them too.
func (g *CFG) classifyShapes() error {
	for bi, b := range g.Kernel.Blocks {
		term := terminator(b)
		if term == nil || term.Op != hsail.OpCBr {
			continue
		}
		t := int(term.Target)
		if t <= bi {
			// Backward conditional branch: do-while loop latch.
			if !g.dominates(t, bi) {
				return fmt.Errorf("kernel %q: BB%d: irreducible backward branch to BB%d", g.Kernel.Name, bi, t)
			}
			g.Shapes[bi] = Shape{
				Kind: ShapeLoopLatch, Branch: bi, Header: t, Join: bi + 1,
			}
			continue
		}
		// Forward conditional branch: if-then or if-then-else. The region
		// skipped by taken lanes is [bi+1, t).
		if t == bi+1 {
			return fmt.Errorf("kernel %q: BB%d: conditional branch to fall-through", g.Kernel.Name, bi)
		}
		lastThen := g.Kernel.Blocks[t-1]
		thenTerm := terminator(lastThen)
		if thenTerm != nil && thenTerm.Op == hsail.OpBr && int(thenTerm.Target) > t {
			// then-region ends by jumping over an else-region.
			join := int(thenTerm.Target)
			g.Shapes[bi] = Shape{
				Kind: ShapeIfThenElse, Branch: bi,
				ThenStart: bi + 1, ThenEnd: t,
				ElseStart: t, ElseEnd: join,
				Join: join,
			}
			continue
		}
		g.Shapes[bi] = Shape{
			Kind: ShapeIfThen, Branch: bi,
			ThenStart: bi + 1, ThenEnd: t,
			Join: t,
		}
	}
	return nil
}
