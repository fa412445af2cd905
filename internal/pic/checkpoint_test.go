package pic

import (
	"bytes"
	"testing"

	"dlpic/internal/diag"
)

// The checkpoint contract: (run A, checkpoint, run B) and
// (restore, run B) produce bit-identical trajectories.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	cfg := fastConfig()
	sim, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(50, nil, nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// Continue the original.
	var recA diag.Recorder
	if err := sim.Run(50, &recA, nil); err != nil {
		t.Fatal(err)
	}
	// Restore and continue.
	restored, err := LoadCheckpoint(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored.stepN != 50 {
		t.Fatalf("restored step count %d, want 50", restored.stepN)
	}
	var recB diag.Recorder
	if err := restored.Run(50, &recB, nil); err != nil {
		t.Fatal(err)
	}
	if recA.Len() != recB.Len() {
		t.Fatalf("sample counts differ: %d vs %d", recA.Len(), recB.Len())
	}
	for i := range recA.Samples {
		a, b := recA.Samples[i], recB.Samples[i]
		if a != b {
			t.Fatalf("trajectories diverged at sample %d:\n  original %+v\n  restored %+v", i, a, b)
		}
	}
	// Particle state identical too.
	for i := range sim.P.X {
		if sim.P.X[i] != restored.P.X[i] || sim.P.V[i] != restored.P.V[i] {
			t.Fatalf("particle %d differs after resume", i)
		}
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	cfg := fastConfig()
	sim, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(10, nil, nil); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/ckpt.gob"
	if err := sim.SaveCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadCheckpointFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Time() != sim.Time() {
		t.Fatalf("time %v vs %v", restored.Time(), sim.Time())
	}
	if _, err := LoadCheckpointFile(path+".missing", nil); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestLoadCheckpointGarbage(t *testing.T) {
	if _, err := LoadCheckpoint(bytes.NewReader([]byte("junk")), nil); err == nil {
		t.Fatal("garbage should fail")
	}
}

func TestLoadCheckpointCorruptFields(t *testing.T) {
	cfg := fastConfig()
	sim, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// Truncate the payload: decoding must fail, not panic.
	data := buf.Bytes()
	if _, err := LoadCheckpoint(bytes.NewReader(data[:len(data)/2]), nil); err == nil {
		t.Fatal("truncated checkpoint should fail")
	}
}

// TestConfigKeyDeterministicAndSensitive pins the fingerprint campaign
// journals key on: stable for equal configs, different for any changed
// field (including fields moving to/from their zero value).
func TestConfigKeyDeterministicAndSensitive(t *testing.T) {
	cfg := Default()
	k1, err := ConfigKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := ConfigKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 || len(k1) != 16 {
		t.Fatalf("fingerprint unstable or malformed: %q vs %q", k1, k2)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Seed++ },
		func(c *Config) { c.V0 = 0.123 },
		func(c *Config) { c.Vth = 0 },
		func(c *Config) { c.Cells = 128 },
		func(c *Config) { c.EnergyConserving = true },
		func(c *Config) { c.Solver = "cg" },
	}
	for i, mutate := range mutations {
		c := Default()
		mutate(&c)
		k, err := ConfigKey(c)
		if err != nil {
			t.Fatal(err)
		}
		if k == k1 {
			t.Fatalf("mutation %d did not change the fingerprint", i)
		}
	}
}
