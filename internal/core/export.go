package core

import (
	"encoding/json"

	"repro/internal/memo"
)

// Export structures mirror the counted space for external tools (the
// paper's validation workflow scripts around the engine; dumping the MEMO
// with its counts makes failures reproducible outside the process).
type Export struct {
	TotalPlans string `json:"total_plans"`
	// Arithmetic records which engine serves the space: "uint64" when
	// the overflow-checked count fits 64 bits, "wide" (limb arithmetic)
	// past that or when a test forces the wide tier.
	Arithmetic string        `json:"arithmetic"`
	Groups     []ExportGroup `json:"groups"`
}

// ExportGroup is one MEMO group with its counted operators.
type ExportGroup struct {
	ID     int        `json:"id"`
	Kind   string     `json:"kind"`
	RelSet string     `json:"relset"`
	Card   float64    `json:"card"`
	Root   bool       `json:"root,omitempty"`
	Ops    []ExportOp `json:"operators"`
}

// ExportOp is one physical operator: its paper-style name, shape, count
// N(v), and per-slot candidate lists (the materialized links of Section
// 3.1, by operator name).
type ExportOp struct {
	Name       string     `json:"name"`
	Op         string     `json:"op"`
	Describe   string     `json:"describe"`
	Children   []int      `json:"children,omitempty"`
	Delivered  string     `json:"delivers,omitempty"`
	Required   []string   `json:"requires,omitempty"`
	Count      string     `json:"plans"`
	Candidates [][]string `json:"candidates,omitempty"`
	LocalCost  float64    `json:"local_cost"`
	Enforcer   bool       `json:"enforcer,omitempty"`
}

// ExportJSONAnnotated serializes the counted space — every group, every
// physical operator with its N(v), and the materialized candidate links
// — annotated with costs from an overlay (the memo itself carries
// none): cardOf maps a group to its estimated cardinality and localOf
// an operator to its local cost.
func (s *Space) ExportJSONAnnotated(cardOf func(*memo.Group) float64, localOf func(*memo.Expr) float64) ([]byte, error) {
	out := Export{TotalPlans: s.total.String(), Arithmetic: s.Arithmetic()}
	for _, g := range s.Memo.Groups {
		eg := ExportGroup{
			ID:     g.ID,
			Kind:   g.Kind.String(),
			RelSet: g.RelSet.String(),
			Card:   cardOf(g),
			Root:   g == s.Memo.Root,
		}
		for _, e := range g.Physical {
			k, ok := s.opOf(e)
			if !ok {
				continue // filtered out of this space
			}
			op := ExportOp{
				Name:      e.Name(),
				Op:        e.Op.String(),
				Describe:  e.Describe(),
				Count:     s.CountFor(e).String(),
				LocalCost: localOf(e),
				Enforcer:  e.IsEnforcer(),
			}
			for _, c := range e.Children {
				op.Children = append(op.Children, c.ID)
			}
			if !e.Delivered.IsNone() {
				op.Delivered = e.Delivered.String()
			}
			for _, r := range e.Required {
				op.Required = append(op.Required, r.String())
			}
			rec := &s.ops[k]
			for _, li := range s.slots[rec.first : rec.first+rec.nslot] {
				slot := s.lists[li].ops
				names := make([]string, len(slot))
				for i, c := range slot {
					names[i] = s.ops[c].expr.Name()
				}
				op.Candidates = append(op.Candidates, names)
			}
			eg.Ops = append(eg.Ops, op)
		}
		out.Groups = append(out.Groups, eg)
	}
	return json.MarshalIndent(out, "", "  ")
}
