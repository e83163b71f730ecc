package mapreduce

import (
	"fmt"
	"os"
	"path/filepath"

	"sidr/internal/kv"
)

// spill writes a Map task's per-keyblock outputs as annotated spill
// files and replaces the in-memory pairs with file references. Empty
// partitions produce no file.
func (j *job) spill(mapID int, outs []mapOutput) error {
	rank := j.in.SpillRank()
	for l := range outs {
		if len(outs[l].pairs) == 0 && outs[l].sourceCount == 0 {
			continue
		}
		path := filepath.Join(j.cfg.SpillDir, fmt.Sprintf("spill-m%05d-r%05d.bin", mapID, l))
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("mapreduce: creating spill: %w", err)
		}
		if err := kv.WriteSpillV3(f, rank, outs[l].sourceCount, outs[l].pairs, kv.V3Options{}); err != nil {
			f.Close()
			return fmt.Errorf("mapreduce: writing spill %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		outs[l] = mapOutput{path: path, sourceCount: outs[l].sourceCount}
	}
	return nil
}

// readSpillFile reads one spill file back, returning its pairs and the
// header's source-count annotation. The header is decoded first — the
// same two-phase access a Reduce task uses to tally its inputs before
// deciding to parse bodies (§3.2.1).
func readSpillFile(path string) ([]kv.Pair, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("mapreduce: opening spill: %w", err)
	}
	defer f.Close()
	h, err := kv.ReadSpillHeader(f)
	if err != nil {
		return nil, 0, fmt.Errorf("mapreduce: spill header %s: %w", path, err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		return nil, 0, err
	}
	h2, pairs, err := kv.ReadSpill(f)
	if err != nil {
		return nil, 0, fmt.Errorf("mapreduce: spill body %s: %w", path, err)
	}
	if h2.SourceCount != h.SourceCount {
		return nil, 0, fmt.Errorf("mapreduce: spill %s header changed between reads", path)
	}
	return pairs, h.SourceCount, nil
}
