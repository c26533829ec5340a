package netsim

import (
	"reflect"
	"testing"
)

// FuzzNetFaultPlanParse pins the network fault grammar the way
// simdisk's FuzzFaultPlanParse pins the disk one: ParseFaultPlan never
// panics, and any string it accepts renders (String) back into a string
// that re-parses to a deeply-equal plan, the rendering being a fixed
// point.
func FuzzNetFaultPlanParse(f *testing.F) {
	for _, seed := range []string{
		"",
		"kill:server0@20ms",
		"drop:link0@10ms+5ms",
		"kill:server2@50ms,drop:client0@0s+1ms,kill:3@1s",
		"drop:node1@2h45m+1.5s",
		"kill: server0 @20ms",
		"kill:a:b@1s",
		"kill:0@+1s",
		"drop:0@1ms+-1ms",               // negative window: must stay rejected
		"kill:0@-1ms",                   // negative activation: must stay rejected
		"fail:1@0s",                     // simdisk grammar: not a network fault kind
		"kill:0@9223372036854775807ns",  // the largest duration
		"drop:0@0s+9223372036854775807", // unitless window
		"kill:0@0s,",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		plan, err := ParseFaultPlan(s)
		if err != nil || plan == nil {
			return // rejected, or blank: nil plan, renders ""
		}
		out := plan.String()
		plan2, err := ParseFaultPlan(out)
		if err != nil {
			t.Fatalf("parsed %q but re-parse of rendering %q failed: %v", s, out, err)
		}
		if !reflect.DeepEqual(plan, plan2) {
			t.Fatalf("round trip changed the plan:\n in: %q -> %+v\nout: %q -> %+v", s, plan, out, plan2)
		}
		if out2 := plan2.String(); out2 != out {
			t.Fatalf("rendering is not a fixed point: %q -> %q", out, out2)
		}
	})
}
