package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"
	"testing"
)

// The seed-1 runs behind the paper outputs, shared by the shape tests
// and TestPaperOutputsGolden so each simulation runs once per binary.
var (
	figure9Seed1  = sync.OnceValues(func() ([]CurveResult, error) { return Figure9(TestbedConfig(1)) })
	figure13Seed1 = sync.OnceValues(func() ([]CurveResult, error) { return Figure13(TestbedConfig(1)) })
	table3Rows    = sync.OnceValues(Table3)
	failuresSeed1 = sync.OnceValues(func() ([]failureStudyRow, error) {
		return FailureStudy(TestbedConfig(1), 176, []float64{0, 0.5})
	})
)

// goldenPaperOutputs pins the SHA-256 of the rendered rows of each
// simulated paper output at seed 1. Between them they plan partition+,
// stock modulo under both key encodings (tile index for Hadoop's
// baseline, corner-in-K for the Figure 13 pathology) and the §6
// re-execution path, so a change to planning, the dependency graph or
// the simulator that moves any figure shows here. The shape tests check
// the paper's claims; this checks that nothing moved at all.
var goldenPaperOutputs = map[string]string{
	"table3":   "8178909fc391bb88051f31b4875d1ad46332ada891d802d9f71fab59de6b694c",
	"fig9":     "6ea104b33cef9ade7259389917326140848ffb42ac02548ee2dc15f061e94ba6",
	"fig13":    "268a638649028a9ecf61f4378c69523b25cab95ec36970f32a6d4c41c73e10dc",
	"failures": "7eb4d29b774da03c6e35fdc1a8cee943b8c6e74052cfa3671ddedd79ea420099",
}

func TestPaperOutputsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale simulation")
	}
	rendered := map[string][]string{}
	t3, err := table3Rows()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range t3 {
		rendered["table3"] = append(rendered["table3"], r.Format())
	}
	f9, err := figure9Seed1()
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range f9 {
		rendered["fig9"] = append(rendered["fig9"], cr.Format())
	}
	f13, err := figure13Seed1()
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range f13 {
		rendered["fig13"] = append(rendered["fig13"], cr.Format())
	}
	stock, sidr, err := Figure13Skew()
	if err != nil {
		t.Fatal(err)
	}
	rendered["fig13"] = append(rendered["fig13"], stock.Format(), sidr.Format())
	fs, err := failuresSeed1()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fs {
		rendered["failures"] = append(rendered["failures"], r.Format())
	}

	for name, want := range goldenPaperOutputs {
		text := strings.Join(rendered[name], "\n")
		sum := sha256.Sum256([]byte(text))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s rendered rows hash %s, want %s:\n%s", name, got, want, text)
		}
	}
}
