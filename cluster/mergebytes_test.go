package cluster

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	quantile "repro"
	"repro/internal/engine/gk"
	"repro/internal/engine/kll"
	"repro/internal/stream"
)

// childShipment cuts one seeded child epoch for the named engine: the blob
// and element count a worker running that engine would ship.
func childShipment(t *testing.T, name string, vals []float64, seed uint64) ([]byte, uint64) {
	t.Helper()
	var blob []byte
	var n uint64
	var err error
	switch name {
	case "kll":
		s, kerr := kll.New(0.02, 1e-3, seed)
		if kerr != nil {
			t.Fatal(kerr)
		}
		s.AddAll(vals)
		blob, n, err = s.Ship()
	case "gk":
		s, gerr := gk.New(0.02, 1e-3, seed)
		if gerr != nil {
			t.Fatal(gerr)
		}
		s.AddAll(vals)
		blob, n, err = s.Ship()
	default:
		sk, cerr := quantile.NewConcurrent[float64](0.02, 1e-3, 1, quantile.WithSeed(seed))
		if cerr != nil {
			t.Fatal(cerr)
		}
		sk.AddAll(vals)
		blob, n, err = sk.ShipAndReset(quantile.Float64Codec())
	}
	if err != nil {
		t.Fatal(err)
	}
	return blob, n
}

// TestMergeStateBytes pins the merge side's bytes for every engine: a
// seeded level-1 coordinator under a fixed clock takes two child
// shipments and one retransmission, cuts its window with ShipAndReset and
// then checkpoints. The cut blob and the checkpoint's merge field must
// match the files in testdata byte for byte.
func TestMergeStateBytes(t *testing.T) {
	data := stream.Collect(stream.Shuffled(4000, 17))
	for _, name := range []string{"mrl99", "kll", "gk"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "merge.ckpt")
			coord, err := NewCoordinator(CoordinatorConfig{
				Eps: 0.02, Delta: 1e-3, Engine: name, Seed: 5, Level: 1,
				CheckpointPath: path,
				Clock:          &fixedClock{t: time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)},
			})
			if err != nil {
				t.Fatal(err)
			}
			tag := name
			if name == "mrl99" {
				tag = "" // legacy untagged envelopes
			}
			var dup Envelope
			for i, id := range []string{"w0", "w1"} {
				blob, n := childShipment(t, name, data[i*2000:(i+1)*2000], uint64(100+i))
				env := Envelope{Worker: id, Epoch: 1, Eps: 0.02, Delta: 1e-3, Engine: tag, Count: n, Blob: blob}
				if status, res := coord.Ingest(env); status != 200 || res.Status != StatusAccepted {
					t.Fatalf("child shipment %s: status %d %+v", id, status, res)
				}
				dup = env
			}
			if status, res := coord.Ingest(dup); status != 200 || res.Status != StatusDuplicate {
				t.Fatalf("duplicate: status %d %+v", status, res)
			}
			cut, n, err := coord.ShipAndReset()
			if err != nil {
				t.Fatal(err)
			}
			if n != 4000 {
				t.Fatalf("cut count %d, want 4000", n)
			}
			checkGolden(t, "merge-"+name+".cut", cut)

			if err := coord.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var f checkpointFile
			if err := json.Unmarshal(raw, &f); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "merge-"+name+".checkpoint", f.Merge)
		})
	}
}
