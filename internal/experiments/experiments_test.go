package experiments

import (
	"strings"
	"testing"

	"sidr/internal/core"
	"sidr/internal/ncfile"
	"sidr/internal/ops"
	"sidr/internal/partition"
)

func TestQueriesParse(t *testing.T) {
	q1, q2 := Query1(), query2()
	if q1.Operator != "median" || q2.Operator != "filter_gt" {
		t.Fatalf("queries changed: %v / %v", q1, q2)
	}
	op1, err := q1.Op()
	if err != nil || op1.Kind() != ops.Holistic {
		t.Fatalf("Query 1 operator: %v %v", op1, err)
	}
	space, err := q1.IntermediateSpace()
	if err != nil {
		t.Fatal(err)
	}
	if space.Size() != 3_600_000 {
		t.Fatalf("Query 1 K' size = %d", space.Size())
	}
}

func TestPaperPlanGeometry(t *testing.T) {
	p, err := PaperPlan(Query1(), core.EngineSIDR, 22)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Splits) != paperSplits {
		t.Fatalf("%d splits, want %d", len(p.Splits), paperSplits)
	}
	var total int64
	for _, s := range p.Splits {
		total += s.Slab.Size()
	}
	if total != p.Query.Input.Size() {
		t.Fatalf("splits cover %d points", total)
	}
	var covered int64
	for _, c := range p.Graph.ExpectedCount {
		covered += c
	}
	if covered != p.Query.Input.Size() {
		t.Fatalf("graph covers %d points", covered)
	}
}

func TestPaperWorkloadByOperatorClass(t *testing.T) {
	// Holistic: all source samples ship.
	p1, err := PaperPlan(Query1(), core.EngineSIDR, 22)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := PaperWorkload(p1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var in1 int64
	for _, r := range w1.Reduces {
		in1 += r.InBytes
	}
	if in1 != p1.Query.Input.Size()*8 {
		t.Fatalf("holistic shuffle bytes = %d, want full dataset %d", in1, p1.Query.Input.Size()*8)
	}
	// Filter: survivors only (plus per-key overhead).
	p2, err := PaperPlan(query2(), core.EngineSIDR, 22)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := PaperWorkload(p2, query2SurvivorFrac)
	if err != nil {
		t.Fatal(err)
	}
	var in2 int64
	for _, r := range w2.Reduces {
		in2 += r.InBytes
	}
	if in2 >= in1/100 {
		t.Fatalf("filter shuffle bytes %d not ≪ holistic %d", in2, in1)
	}
}

func TestFigure9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale simulation")
	}
	rs, err := figure9Seed1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("%d curves", len(rs))
	}
	h, sh, ss := rs[0], rs[1], rs[2]
	// First results: SIDR ≪ SciHadoop ≪ Hadoop (paper: 625 / 1132 /
	// 2797 s).
	if !(ss.FirstResult < sh.FirstResult/2) {
		t.Fatalf("SIDR first %v not ≪ SciHadoop %v", ss.FirstResult, sh.FirstResult)
	}
	if !(sh.FirstResult < h.FirstResult/1.5) {
		t.Fatalf("SciHadoop first %v not ≪ Hadoop %v", sh.FirstResult, h.FirstResult)
	}
	// Totals: Hadoop ~2.3× SciHadoop; SIDR within 10% of SciHadoop
	// (paper: 2,890 / 1,250 / 1,264 s).
	if ratio := h.Makespan / sh.Makespan; ratio < 1.8 || ratio > 3.0 {
		t.Fatalf("Hadoop/SciHadoop total ratio = %v", ratio)
	}
	if ratio := ss.Makespan / sh.Makespan; ratio < 0.85 || ratio > 1.10 {
		t.Fatalf("SIDR/SciHadoop total ratio = %v", ratio)
	}
	// Abstract: SIDR executes up to 2.5× faster than Hadoop.
	if speedup := h.Makespan / ss.Makespan; speedup < 2.0 {
		t.Fatalf("SIDR speedup over Hadoop = %v", speedup)
	}
}

func TestFigure10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale simulation")
	}
	rs, err := Figure10(TestbedConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 5 {
		t.Fatalf("%d curves", len(rs))
	}
	sh := rs[0]
	// SIDR's first result and makespan fall monotonically with reducer
	// count (22 -> 528).
	for i := 2; i < 5; i++ {
		if !(rs[i].FirstResult < rs[i-1].FirstResult) {
			t.Fatalf("first result not improving: %v then %v", rs[i-1].Format(), rs[i].Format())
		}
		if !(rs[i].Makespan < rs[i-1].Makespan+1) {
			t.Fatalf("makespan not improving: %v then %v", rs[i-1].Format(), rs[i].Format())
		}
	}
	// At 528 reducers SIDR is substantially faster than SciHadoop
	// (paper: 29%).
	gain := (sh.Makespan - rs[4].Makespan) / sh.Makespan
	if gain < 0.15 {
		t.Fatalf("528-reducer gain over SciHadoop = %.0f%%", gain*100)
	}
	// Abstract: "produces initial results with only 6% of the query
	// completed" — at the highest reducer count, first results must
	// arrive with under 10% of Map work done.
	if rs[4].MapFracAtFirst > 0.10 {
		t.Fatalf("first result required %.0f%% of maps", rs[4].MapFracAtFirst*100)
	}
}

func TestFigure11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale simulation")
	}
	rs, err := Figure11(TestbedConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	sh, ss22 := rs[0], rs[1]
	// Reduce work is a tiny fraction of the query: SIDR's total gain is
	// small (§4.1: "the reduction in total query time is much smaller
	// than it was for Query 1") even though first results arrive early.
	if gain := (sh.Makespan - ss22.Makespan) / sh.Makespan; gain > 0.10 {
		t.Fatalf("filter-query gain %v should be small", gain)
	}
	if !(ss22.FirstResult < sh.FirstResult/2) {
		t.Fatalf("SIDR filter first result %v not early vs %v", ss22.FirstResult, sh.FirstResult)
	}
}

func TestFigure12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale simulation")
	}
	rows, err := Figure12(TestbedConfig(1), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Reducers != 22 || rows[1].Reducers != 88 {
		t.Fatalf("rows = %+v", rows)
	}
	// More reducers -> smaller dependency sets -> lower variance (§4.2).
	if !(rows[1].MeanStdDev < rows[0].MeanStdDev) {
		t.Fatalf("variance did not fall: %v vs %v", rows[0].MeanStdDev, rows[1].MeanStdDev)
	}
	if _, err := Figure12(TestbedConfig(1), 1); err == nil {
		t.Fatal("single-run variance accepted")
	}
}

func TestFigure13Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale simulation")
	}
	rs, err := figure13Seed1()
	if err != nil {
		t.Fatal(err)
	}
	stock, sidr := rs[0], rs[1]
	gain := (stock.Makespan - sidr.Makespan) / stock.Makespan
	// Paper: SIDR completes 42% faster; require at least 30%.
	if gain < 0.30 {
		t.Fatalf("skew-case gain = %.0f%%", gain*100)
	}
}

func TestSkewLoads(t *testing.T) {
	q := Query1()
	enc := partition.CornerInKEncoding{InputSpace: q.Input.Shape, Extraction: q.Extraction}
	stock, err := paperPlanEncoded(q, core.EngineSciHadoop, 22, enc)
	if err != nil {
		t.Fatal(err)
	}
	st := skewLoads(stock)
	// §4.3: every encoded key is even, so the 11 odd keyblocks starve
	// and even ones carry double.
	if st.Starved != 11 {
		t.Fatalf("starved = %d, want 11", st.Starved)
	}
	if st.MaxOverMean < 1.9 {
		t.Fatalf("overload factor = %v, want ~2", st.MaxOverMean)
	}
	if st.Gini < 0.4 {
		t.Fatalf("stock gini = %v, want severe imbalance", st.Gini)
	}
	sidr, err := PaperPlan(q, core.EngineSIDR, 22)
	if err != nil {
		t.Fatal(err)
	}
	st = skewLoads(sidr)
	// partition+ balances to within one tile instance: with the default
	// skew bound (65,536 keys) over 163,636 keys per reducer that is at
	// most ~1.2× the mean, against 2× for the pathological modulo case.
	if st.Starved != 0 || st.MaxOverMean > 1.25 {
		t.Fatalf("partition+ skewed: %+v", st)
	}
	if st.Gini > 0.15 {
		t.Fatalf("partition+ gini = %v", st.Gini)
	}
}

func TestTable2Shape(t *testing.T) {
	cfg := table2Config{
		Dir:           t.TempDir(),
		PointsPerTask: 1 << 12,
		ReduceCounts:  []int{4, 8, 16},
		Runs:          2,
	}
	rows, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	// Sentinel file size scales linearly with total reduces (modulo the
	// ~50-byte header); the dense file stays at the task's own data.
	for i := 1; i < 3; i++ {
		ratio := float64(rows[i].Bytes) / float64(rows[i-1].Bytes)
		if ratio < 1.99 || ratio > 2.01 {
			t.Fatalf("sentinel sizes not doubling: %d %d %d", rows[0].Bytes, rows[1].Bytes, rows[2].Bytes)
		}
	}
	dense := rows[3]
	if dense.Strategy != ncfile.Dense {
		t.Fatalf("row 3 = %+v", dense)
	}
	if dense.Bytes >= rows[0].Bytes/2 {
		t.Fatalf("dense output %d not ≪ sentinel %d", dense.Bytes, rows[0].Bytes)
	}
	pairs := rows[4]
	// Pairs: constant overhead of 2 (1-D coordinate + value per point).
	want := int64(4+4+8) + cfg.PointsPerTask*16
	if pairs.Bytes != want {
		t.Fatalf("pair bytes = %d, want %d", pairs.Bytes, want)
	}
	if _, err := Table2(table2Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestTable3Values(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale planning")
	}
	rows, err := table3Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	// Hadoop column must match the paper exactly for the shared split
	// count: maps × reduces.
	wantHadoop := map[int]int64{22: 61182, 66: 183546, 132: 367092, 264: 734184, 528: 1468368}
	for _, r := range rows {
		if want, ok := wantHadoop[r.Reduces]; ok && r.HadoopConns != want {
			t.Fatalf("hadoop conns at %d reduces = %d, want %d", r.Reduces, r.HadoopConns, want)
		}
		// SIDR stays within a small multiple of the split count at every
		// scale (paper: 2,820 -> 5,106 while Hadoop grows 50×).
		if r.SIDRConns < int64(r.Maps) || r.SIDRConns > 2*int64(r.Maps) {
			t.Fatalf("SIDR conns at %d reduces = %d", r.Reduces, r.SIDRConns)
		}
	}
	if !(rows[5].SIDRConns < rows[5].HadoopConns/100) {
		t.Fatalf("SIDR %d not ≪ Hadoop %d at 1024 reduces", rows[5].SIDRConns, rows[5].HadoopConns)
	}
}

func TestPartitionMicro(t *testing.T) {
	res, err := PartitionMicro(100_000, 2, 22)
	if err != nil {
		t.Fatal(err)
	}
	if res.DefaultSecs <= 0 || res.PlusSecs <= 0 {
		t.Fatalf("times = %+v", res)
	}
	// §4.5's conclusion: the partitioners are within the same order of
	// magnitude (the paper saw 200 vs 223 ms).
	ratio := res.PlusSecs / res.DefaultSecs
	if ratio > 5 || ratio < 0.2 {
		t.Fatalf("partition+ / default ratio = %v", ratio)
	}
	if !strings.Contains(res.Format(), "partition+") {
		t.Fatalf("format = %q", res.Format())
	}
	if _, err := PartitionMicro(0, 1, 1); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestCurveResultFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale simulation")
	}
	rs, err := figure9Seed1()
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range rs {
		s := cr.Format()
		if !strings.Contains(s, "first=") || !strings.Contains(s, "conns=") {
			t.Fatalf("format = %q", s)
		}
	}
}
