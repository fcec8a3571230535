package experiment

import (
	"fmt"
	"slices"
	"testing"
)

// shapeOf renders what a workload runs: its declared sizes and threshold
// rule, and the protocol, network and stream values of the options it
// assembles.
func shapeOf(w workload) string {
	o := w.options()
	return fmt.Sprintf("n%d k%d %v+%v F%d Tg%v M%d γ%v pdcc%v flush%d grace%d loss%v poor%v %dbps %dB up%v η-max(%vσ,%v) pilot%v expel%v lifting%v retry%v churn%d/%d reps%d",
		w.n, w.k, w.stream, w.tail, o.Gossip.F, o.Gossip.Period, o.Rep.M, o.Core.Gamma, o.Core.Pdcc,
		o.Rep.FlushEvery, o.Rep.GracePeriods, o.NetDefaults.LossIn, w.poor,
		o.Stream.BitrateBps, o.Stream.ChunkPayload, o.NetDefaults.UplinkBps, w.sigmas, w.floor, w.pilot,
		o.ExpelOnDetection, o.LiFTinG, o.Gossip.RequestRetry, w.joins, len(w.leavers), w.reps)
}

// TestWorkloadShapes pins every cluster workload at the default and -quick
// sizes: what each experiment streams, on which protocol and network, under
// which threshold rule. Every value is the one the experiment's own builder
// stated before the workloads were folded into one declaration; `make
// identical` compares the documents these shapes produce.
func TestWorkloadShapes(t *testing.T) {
	for _, c := range []struct {
		exp   string
		quick bool
		want  []string
	}{
		{"churn", false, []string{
			"n120 k12 30s+500ms F7 Tg500ms M10 γ8 pdcc1 flush0 grace0 loss0.02 poor0 674000bps 1316B up0 η-max(0σ,0) pilot0s expelfalse liftingtrue retry0s churn20/20 reps0",
		}},
		{"scale", false, []string{
			"n300 k30 20s+1s F7 Tg500ms M25 γ8.95 pdcc1 flush5 grace24 loss0.01 poor0 674000bps 5264B up0 η-max(10σ,0) pilot20s expeltrue liftingtrue retry0s churn0/0 reps0",
			"n10000 k1000 20s+1s F7 Tg500ms M25 γ8.95 pdcc1 flush5 grace24 loss0.01 poor0 674000bps 5264B up0 η-max(10σ,0) pilot20s expeltrue liftingtrue retry0s churn0/0 reps0",
		}},
		{"soak", false, []string{
			"n120 k12 30s+500ms F7 Tg250ms M12 γ8 pdcc1 flush0 grace24 loss0.01 poor0 674000bps 1316B up0 η-max(16σ,3) pilot30s expeltrue liftingtrue retry0s churn10/10 reps0",
		}},
		{"matrix", false, []string{
			"n60 k6 10s+600ms F7 Tg100ms M8 γ4.5 pdcc1 flush0 grace0 loss0 poor0 674000bps 1316B up0 η-max(6σ,1.5) pilot10s expelfalse liftingtrue retry0s churn0/0 reps3",
			"n60 k6 10s+600ms F7 Tg100ms M8 γ4.5 pdcc1 flush0 grace0 loss0 poor0 674000bps 1316B up0 η-max(6σ,1.5) pilot10s expelfalse liftingtrue retry0s churn0/0 reps3",
			"n60 k6 10s+600ms F7 Tg100ms M8 γ4.5 pdcc1 flush0 grace0 loss0 poor0 674000bps 1316B up0 η-max(6σ,1.5) pilot10s expelfalse liftingtrue retry0s churn0/0 reps3",
			"n24 k4 2.4s+360ms F6 Tg60ms M8 γ4.5 pdcc1 flush0 grace0 loss0 poor0 674000bps 1316B up0 η-max(6σ,3) pilot2.4s expelfalse liftingtrue retry0s churn0/0 reps3",
			"n60 k6 10s+1.2s F7 Tg100ms M8 γ4.5 pdcc1 flush0 grace0 loss0 poor0 674000bps 1316B up0 η-max(6σ,1.5) pilot10s expelfalse liftingtrue retry0s churn0/0 reps3",
			"n60 k6 10s+1.2s F7 Tg100ms M8 γ4.5 pdcc1 flush0 grace0 loss0 poor0 674000bps 1316B up0 η-max(6σ,1.5) pilot10s expelfalse liftingtrue retry0s churn0/0 reps3",
			"n60 k6 10s+1.2s F7 Tg100ms M8 γ4.5 pdcc1 flush0 grace0 loss0 poor0 674000bps 1316B up0 η-max(6σ,1.5) pilot10s expelfalse liftingtrue retry0s churn0/0 reps3",
			"n60 k6 10s+1.2s F7 Tg100ms M8 γ4.5 pdcc1 flush0 grace0 loss0 poor0 674000bps 1316B up0 η-max(6σ,1.5) pilot10s expelfalse liftingtrue retry0s churn0/0 reps3",
			"n60 k6 10s+1.2s F7 Tg100ms M8 γ4.5 pdcc1 flush0 grace0 loss0 poor0 674000bps 1316B up0 η-max(6σ,1.5) pilot10s expelfalse liftingtrue retry0s churn0/0 reps3",
			"n60 k6 10s+600ms F7 Tg100ms M8 γ4.5 pdcc1 flush0 grace16 loss0 poor0 674000bps 1316B up0 η-max(6σ,6) pilot10s expeltrue liftingtrue retry0s churn0/0 reps3",
		}},
		{"fig14", false, []string{
			"n300 k30 35s+0s F7 Tg500ms M25 γ8.95 pdcc1 flush1 grace0 loss0.04 poor0.1 674000bps 1316B up0 η-max(0σ,0) pilot35s expelfalse liftingtrue retry0s churn0/0 reps0",
			"n300 k30 35s+0s F7 Tg500ms M25 γ8.95 pdcc0.5 flush1 grace0 loss0.04 poor0.1 674000bps 1316B up0 η-max(0σ,0) pilot35s expelfalse liftingtrue retry0s churn0/0 reps0",
		}},
		{"fig1", false, []string{
			"n300 k0 45s+45s F7 Tg500ms M25 γ8.95 pdcc1 flush10 grace0 loss0.04 poor0 674000bps 1316B up168500 η-max(0σ,0) pilot0s expelfalse liftingfalse retry0s churn0/0 reps0",
			"n300 k75 45s+45s F7 Tg500ms M25 γ8.95 pdcc1 flush10 grace0 loss0.04 poor0 674000bps 1316B up168500 η-max(0σ,0) pilot0s expelfalse liftingfalse retry0s churn0/0 reps0",
			"n300 k75 45s+45s F7 Tg500ms M25 γ8.95 pdcc1 flush10 grace0 loss0.04 poor0 674000bps 1316B up168500 η-max(2.5σ,0) pilot10s expeltrue liftingtrue retry0s churn0/0 reps0",
		}},
		{"table3", false, []string{
			"n300 k30 35s+1s F7 Tg500ms M25 γ8.95 pdcc0 flush10 grace0 loss0.04 poor0.1 674000bps 1316B up0 η-max(0σ,0) pilot0s expelfalse liftingtrue retry0s churn0/0 reps0",
			"n300 k30 35s+1s F7 Tg500ms M25 γ8.95 pdcc0.5 flush10 grace0 loss0.04 poor0.1 674000bps 1316B up0 η-max(0σ,0) pilot0s expelfalse liftingtrue retry0s churn0/0 reps0",
			"n300 k30 35s+1s F7 Tg500ms M25 γ8.95 pdcc1 flush10 grace0 loss0.04 poor0.1 674000bps 1316B up0 η-max(0σ,0) pilot0s expelfalse liftingtrue retry0s churn0/0 reps0",
		}},
		{"table5", false, []string{
			"n300 k30 35s+1s F7 Tg500ms M25 γ8.95 pdcc0 flush10 grace0 loss0.04 poor0.1 674000bps 1316B up0 η-max(0σ,0) pilot0s expelfalse liftingtrue retry0s churn0/0 reps0",
			"n300 k30 35s+1s F7 Tg500ms M25 γ8.95 pdcc0.5 flush10 grace0 loss0.04 poor0.1 674000bps 1316B up0 η-max(0σ,0) pilot0s expelfalse liftingtrue retry0s churn0/0 reps0",
			"n300 k30 35s+1s F7 Tg500ms M25 γ8.95 pdcc1 flush10 grace0 loss0.04 poor0.1 674000bps 1316B up0 η-max(0σ,0) pilot0s expelfalse liftingtrue retry0s churn0/0 reps0",
			"n300 k30 35s+1s F7 Tg500ms M25 γ8.95 pdcc0 flush10 grace0 loss0.04 poor0.1 1082000bps 2112B up0 η-max(0σ,0) pilot0s expelfalse liftingtrue retry0s churn0/0 reps0",
			"n300 k30 35s+1s F7 Tg500ms M25 γ8.95 pdcc0.5 flush10 grace0 loss0.04 poor0.1 1082000bps 2112B up0 η-max(0σ,0) pilot0s expelfalse liftingtrue retry0s churn0/0 reps0",
			"n300 k30 35s+1s F7 Tg500ms M25 γ8.95 pdcc1 flush10 grace0 loss0.04 poor0.1 1082000bps 2112B up0 η-max(0σ,0) pilot0s expelfalse liftingtrue retry0s churn0/0 reps0",
			"n300 k30 35s+1s F7 Tg500ms M25 γ8.95 pdcc0 flush10 grace0 loss0.04 poor0.1 2036000bps 3975B up0 η-max(0σ,0) pilot0s expelfalse liftingtrue retry0s churn0/0 reps0",
			"n300 k30 35s+1s F7 Tg500ms M25 γ8.95 pdcc0.5 flush10 grace0 loss0.04 poor0.1 2036000bps 3975B up0 η-max(0σ,0) pilot0s expelfalse liftingtrue retry0s churn0/0 reps0",
			"n300 k30 35s+1s F7 Tg500ms M25 γ8.95 pdcc1 flush10 grace0 loss0.04 poor0.1 2036000bps 3975B up0 η-max(0σ,0) pilot0s expelfalse liftingtrue retry0s churn0/0 reps0",
		}},
		{"ablate", false, []string{
			"n80 k0 15s+2s F7 Tg500ms M25 γ8.95 pdcc1 flush10 grace0 loss0.04 poor0 674000bps 1316B up0 η-max(0σ,0) pilot0s expelfalse liftingfalse retry0s churn0/0 reps0",
			"n80 k0 15s+2s F7 Tg500ms M25 γ8.95 pdcc1 flush10 grace0 loss0.04 poor0 674000bps 1316B up0 η-max(0σ,0) pilot0s expelfalse liftingfalse retry1h0m0s churn0/0 reps0",
		}},
		{"churn", true, []string{
			"n50 k5 8s+500ms F7 Tg500ms M10 γ8 pdcc1 flush0 grace0 loss0.02 poor0 674000bps 1316B up0 η-max(0σ,0) pilot0s expelfalse liftingtrue retry0s churn6/6 reps0",
		}},
		{"scale", true, []string{
			"n300 k30 20s+1s F7 Tg500ms M25 γ8.95 pdcc1 flush5 grace24 loss0.01 poor0 674000bps 5264B up0 η-max(10σ,0) pilot20s expeltrue liftingtrue retry0s churn0/0 reps0",
			"n1000 k100 20s+1s F7 Tg500ms M25 γ8.95 pdcc1 flush5 grace24 loss0.01 poor0 674000bps 5264B up0 η-max(10σ,0) pilot20s expeltrue liftingtrue retry0s churn0/0 reps0",
		}},
		{"soak", true, []string{
			"n48 k4 25s+500ms F7 Tg250ms M12 γ8 pdcc1 flush0 grace16 loss0.01 poor0 674000bps 1316B up0 η-max(16σ,8) pilot25s expeltrue liftingtrue retry0s churn4/4 reps0",
		}},
		{"matrix", true, []string{
			"n40 k6 5s+600ms F7 Tg100ms M8 γ4.5 pdcc1 flush0 grace0 loss0 poor0 674000bps 1316B up0 η-max(6σ,1.5) pilot5s expelfalse liftingtrue retry0s churn0/0 reps1",
			"n40 k6 5s+600ms F7 Tg100ms M8 γ4.5 pdcc1 flush0 grace0 loss0 poor0 674000bps 1316B up0 η-max(6σ,1.5) pilot5s expelfalse liftingtrue retry0s churn0/0 reps1",
			"n40 k6 5s+600ms F7 Tg100ms M8 γ4.5 pdcc1 flush0 grace0 loss0 poor0 674000bps 1316B up0 η-max(6σ,1.5) pilot5s expelfalse liftingtrue retry0s churn0/0 reps1",
			"n24 k4 2.4s+360ms F6 Tg60ms M8 γ4.5 pdcc1 flush0 grace0 loss0 poor0 674000bps 1316B up0 η-max(6σ,3) pilot2.4s expelfalse liftingtrue retry0s churn0/0 reps1",
			"n40 k6 5s+1.2s F7 Tg100ms M8 γ4.5 pdcc1 flush0 grace0 loss0 poor0 674000bps 1316B up0 η-max(6σ,1.5) pilot5s expelfalse liftingtrue retry0s churn0/0 reps1",
			"n40 k6 5s+1.2s F7 Tg100ms M8 γ4.5 pdcc1 flush0 grace0 loss0 poor0 674000bps 1316B up0 η-max(6σ,1.5) pilot5s expelfalse liftingtrue retry0s churn0/0 reps1",
			"n40 k6 5s+1.2s F7 Tg100ms M8 γ4.5 pdcc1 flush0 grace0 loss0 poor0 674000bps 1316B up0 η-max(6σ,1.5) pilot5s expelfalse liftingtrue retry0s churn0/0 reps1",
			"n40 k6 5s+1.2s F7 Tg100ms M8 γ4.5 pdcc1 flush0 grace0 loss0 poor0 674000bps 1316B up0 η-max(6σ,1.5) pilot5s expelfalse liftingtrue retry0s churn0/0 reps1",
			"n40 k6 5s+1.2s F7 Tg100ms M8 γ4.5 pdcc1 flush0 grace0 loss0 poor0 674000bps 1316B up0 η-max(6σ,1.5) pilot5s expelfalse liftingtrue retry0s churn0/0 reps1",
			"n40 k6 5s+600ms F7 Tg100ms M8 γ4.5 pdcc1 flush0 grace16 loss0 poor0 674000bps 1316B up0 η-max(6σ,6) pilot5s expeltrue liftingtrue retry0s churn0/0 reps1",
		}},
		{"fig14", true, []string{
			"n100 k10 20s+0s F7 Tg500ms M25 γ8.95 pdcc1 flush1 grace0 loss0.04 poor0.1 674000bps 1316B up0 η-max(0σ,0) pilot20s expelfalse liftingtrue retry0s churn0/0 reps0",
			"n100 k10 20s+0s F7 Tg500ms M25 γ8.95 pdcc0.5 flush1 grace0 loss0.04 poor0.1 674000bps 1316B up0 η-max(0σ,0) pilot20s expelfalse liftingtrue retry0s churn0/0 reps0",
		}},
		{"fig1", true, []string{
			"n100 k0 20s+20s F7 Tg500ms M25 γ8.95 pdcc1 flush10 grace0 loss0.04 poor0 674000bps 1316B up168500 η-max(0σ,0) pilot0s expelfalse liftingfalse retry0s churn0/0 reps0",
			"n100 k25 20s+20s F7 Tg500ms M25 γ8.95 pdcc1 flush10 grace0 loss0.04 poor0 674000bps 1316B up168500 η-max(0σ,0) pilot0s expelfalse liftingfalse retry0s churn0/0 reps0",
			"n100 k25 20s+20s F7 Tg500ms M25 γ8.95 pdcc1 flush10 grace0 loss0.04 poor0 674000bps 1316B up168500 η-max(2.5σ,0) pilot10s expeltrue liftingtrue retry0s churn0/0 reps0",
		}},
		{"table3", true, []string{
			"n100 k10 20s+1s F7 Tg500ms M25 γ8.95 pdcc0 flush10 grace0 loss0.04 poor0.1 674000bps 1316B up0 η-max(0σ,0) pilot0s expelfalse liftingtrue retry0s churn0/0 reps0",
			"n100 k10 20s+1s F7 Tg500ms M25 γ8.95 pdcc0.5 flush10 grace0 loss0.04 poor0.1 674000bps 1316B up0 η-max(0σ,0) pilot0s expelfalse liftingtrue retry0s churn0/0 reps0",
			"n100 k10 20s+1s F7 Tg500ms M25 γ8.95 pdcc1 flush10 grace0 loss0.04 poor0.1 674000bps 1316B up0 η-max(0σ,0) pilot0s expelfalse liftingtrue retry0s churn0/0 reps0",
		}},
		{"table5", true, []string{
			"n100 k10 20s+1s F7 Tg500ms M25 γ8.95 pdcc0 flush10 grace0 loss0.04 poor0.1 674000bps 1316B up0 η-max(0σ,0) pilot0s expelfalse liftingtrue retry0s churn0/0 reps0",
			"n100 k10 20s+1s F7 Tg500ms M25 γ8.95 pdcc0.5 flush10 grace0 loss0.04 poor0.1 674000bps 1316B up0 η-max(0σ,0) pilot0s expelfalse liftingtrue retry0s churn0/0 reps0",
			"n100 k10 20s+1s F7 Tg500ms M25 γ8.95 pdcc1 flush10 grace0 loss0.04 poor0.1 674000bps 1316B up0 η-max(0σ,0) pilot0s expelfalse liftingtrue retry0s churn0/0 reps0",
			"n100 k10 20s+1s F7 Tg500ms M25 γ8.95 pdcc0 flush10 grace0 loss0.04 poor0.1 1082000bps 2112B up0 η-max(0σ,0) pilot0s expelfalse liftingtrue retry0s churn0/0 reps0",
			"n100 k10 20s+1s F7 Tg500ms M25 γ8.95 pdcc0.5 flush10 grace0 loss0.04 poor0.1 1082000bps 2112B up0 η-max(0σ,0) pilot0s expelfalse liftingtrue retry0s churn0/0 reps0",
			"n100 k10 20s+1s F7 Tg500ms M25 γ8.95 pdcc1 flush10 grace0 loss0.04 poor0.1 1082000bps 2112B up0 η-max(0σ,0) pilot0s expelfalse liftingtrue retry0s churn0/0 reps0",
			"n100 k10 20s+1s F7 Tg500ms M25 γ8.95 pdcc0 flush10 grace0 loss0.04 poor0.1 2036000bps 3975B up0 η-max(0σ,0) pilot0s expelfalse liftingtrue retry0s churn0/0 reps0",
			"n100 k10 20s+1s F7 Tg500ms M25 γ8.95 pdcc0.5 flush10 grace0 loss0.04 poor0.1 2036000bps 3975B up0 η-max(0σ,0) pilot0s expelfalse liftingtrue retry0s churn0/0 reps0",
			"n100 k10 20s+1s F7 Tg500ms M25 γ8.95 pdcc1 flush10 grace0 loss0.04 poor0.1 2036000bps 3975B up0 η-max(0σ,0) pilot0s expelfalse liftingtrue retry0s churn0/0 reps0",
		}},
		{"ablate", true, []string{
			"n50 k0 8s+2s F7 Tg500ms M25 γ8.95 pdcc1 flush10 grace0 loss0.04 poor0 674000bps 1316B up0 η-max(0σ,0) pilot0s expelfalse liftingfalse retry0s churn0/0 reps0",
			"n50 k0 8s+2s F7 Tg500ms M25 γ8.95 pdcc1 flush10 grace0 loss0.04 poor0 674000bps 1316B up0 η-max(0σ,0) pilot0s expelfalse liftingfalse retry1h0m0s churn0/0 reps0",
		}},
	} {
		e, ok := Lookup(c.exp)
		if !ok || e.workloads == nil {
			t.Errorf("%s declares no workloads", c.exp)
			continue
		}
		p := DefaultParams()
		p.Quick = c.quick
		ws := e.workloads(p.resolve(e.DefaultParams, e.quick))
		if len(ws) != len(c.want) {
			t.Errorf("%s quick=%v: %d workloads, want %d", c.exp, c.quick, len(ws), len(c.want))
			continue
		}
		for i, w := range ws {
			if got := shapeOf(w); got != c.want[i] {
				t.Errorf("%s quick=%v workload %d:\n got  %s\n want %s", c.exp, c.quick, i, got, c.want[i])
			}
		}
	}
	var clustered []string
	for _, e := range Experiments() {
		if e.workloads != nil {
			clustered = append(clustered, e.Name)
		}
	}
	if want := []string{"ablate", "table3", "table5", "churn", "scale", "soak", "matrix", "fig14", "fig1"}; !slices.Equal(clustered, want) {
		t.Errorf("experiments with workloads = %v, the table pins %v", clustered, want)
	}
}
