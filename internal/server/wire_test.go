package server

import (
	"encoding/json"
	"testing"

	"github.com/vpir-sim/vpir/internal/sample"
)

// TestWireKeyOrder pins the JSON names and order of the stats and sample
// objects. Every /v1/run, /v1/sweep and /v1/trace body embeds them, so a
// renamed or reordered field of core.Report or sample.Extent would change
// every response body.
func TestWireKeyOrder(t *testing.T) {
	for _, c := range []struct {
		v    any
		want string
	}{
		{SimStats{}, `{"config":"","cycles":0,"committed":0,"executed":0,"ipc":0,` +
			`"branch_pred_rate":0,"return_pred_rate":0,"squashes":0,"spurious_squashes":0,` +
			`"reuse_result_rate":0,"reuse_addr_rate":0,"exec_squashed_pct":0,"recovered_pct":0,` +
			`"vp_result_pred":0,"vp_result_mispred":0,"vp_addr_pred":0,"vp_addr_mispred":0,` +
			`"exec_times_pct":[0,0,0],"contention":0,"mean_branch_resolve_latency":0}`},
		{SampleResult{CIs: []sample.MetricCI{{}}}, `{"intervals":0,"total_insts":0,"sampled_insts":0,` +
			`"coverage":0,"exact":false,"cis":[{"name":"","mean":0,"half":0}]}`},
	} {
		got, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("%T marshals as\n%s\nwant\n%s", c.v, got, c.want)
		}
	}
}
