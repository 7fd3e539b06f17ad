package sph

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"path/filepath"
	"testing"
)

func TestCheckpointRoundtrip(t *testing.T) {
	st := latticeState(6, t)
	// Evolve a little so every field carries non-trivial values.
	for i := 0; i < 3; i++ {
		st.RunStep(nil)
	}
	var buf bytes.Buffer
	if err := st.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), st.Opt)
	if err != nil {
		t.Fatal(err)
	}
	if back.P.N != st.P.N || back.Time != st.Time || back.Dt != st.Dt || back.Step != st.Step {
		t.Fatalf("clock/meta mismatch: %+v vs %+v", back, st)
	}
	for i := 0; i < st.P.N; i++ {
		if back.P.X[i] != st.P.X[i] || back.P.U[i] != st.P.U[i] ||
			back.P.Rho[i] != st.P.Rho[i] || back.P.Alpha[i] != st.P.Alpha[i] ||
			back.P.NC[i] != st.P.NC[i] || back.P.Keys[i] != st.P.Keys[i] {
			t.Fatalf("particle %d fields lost", i)
		}
	}
}

func TestCheckpointResumeContinuesIdentically(t *testing.T) {
	// Running N steps straight equals running k, checkpointing, restoring
	// and running N-k: checkpoint/restart must not perturb the trajectory.
	straight := latticeState(6, t)
	for i := 0; i < 6; i++ {
		straight.RunStep(nil)
	}

	first := latticeState(6, t)
	for i := 0; i < 3; i++ {
		first.RunStep(nil)
	}
	var buf bytes.Buffer
	if err := first.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := ReadCheckpoint(&buf, first.Opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		resumed.RunStep(nil)
	}
	if resumed.Time != straight.Time {
		t.Fatalf("time diverged after restart: %v vs %v", resumed.Time, straight.Time)
	}
	for i := 0; i < straight.P.N; i++ {
		if resumed.P.X[i] != straight.P.X[i] || resumed.P.VX[i] != straight.P.VX[i] {
			t.Fatalf("trajectory diverged at particle %d after restart", i)
		}
	}
}

func TestCheckpointDetectsCorruption(t *testing.T) {
	st := latticeState(4, t)
	var buf bytes.Buffer
	if err := st.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Bit flip in the middle.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x40
	if _, err := ReadCheckpoint(bytes.NewReader(corrupt), st.Opt); err == nil {
		t.Error("corrupted checkpoint accepted")
	}
	// Truncation.
	if _, err := ReadCheckpoint(bytes.NewReader(data[:len(data)-10]), st.Opt); err == nil {
		t.Error("truncated checkpoint accepted")
	}
	// Wrong magic.
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := ReadCheckpoint(bytes.NewReader(bad), st.Opt); err == nil {
		t.Error("bad magic accepted")
	}
	// Empty input.
	if _, err := ReadCheckpoint(bytes.NewReader(nil), st.Opt); err == nil {
		t.Error("empty checkpoint accepted")
	}
}

func TestCheckpointFileRoundtrip(t *testing.T) {
	st := latticeState(4, t)
	st.RunStep(nil)
	path := filepath.Join(t.TempDir(), "state.sphx")
	if err := st.SaveCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCheckpointFile(path, st.Opt)
	if err != nil {
		t.Fatal(err)
	}
	if back.P.N != st.P.N || back.Time != st.Time {
		t.Error("file roundtrip lost state")
	}
	if _, err := LoadCheckpointFile(filepath.Join(t.TempDir(), "missing"), st.Opt); err == nil {
		t.Error("missing file accepted")
	}
}

// TestCheckpointV2SkinSnapshotStillLoads: version-2 files written while the
// pipeline kept a Verlet-skin candidate list carry a neighbor-list
// reference snapshot after the reorder clock — flag byte 1, the build step,
// then X, Y, Z and H. The reader must accept such a file, discard the
// snapshot, and resume exactly like the same state saved without one; a
// file whose snapshot is cut short must still be rejected.
func TestCheckpointV2SkinSnapshotStillLoads(t *testing.T) {
	st := latticeState(6, t)
	for i := 0; i < 3; i++ {
		st.RunStep(nil)
	}
	var buf bytes.Buffer
	if err := st.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	plain := buf.Bytes()
	if v := binary.LittleEndian.Uint32(plain[4:8]); v != 2 {
		t.Fatalf("writer emitted version %d, want 2", v)
	}
	// Payload ends with the snapshot flag, then the CRC32.
	if flag := plain[len(plain)-5]; flag != 0 {
		t.Fatalf("writer emitted snapshot flag %d, want 0", flag)
	}
	withSkin := func(arrays [][]float64) []byte {
		out := append([]byte(nil), plain[:len(plain)-5]...)
		out = append(out, 1)
		out = binary.LittleEndian.AppendUint64(out, uint64(st.Step-1))
		for _, f := range arrays {
			for _, v := range f {
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
			}
		}
		return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	}
	p := st.P
	skinFile := withSkin([][]float64{p.X, p.Y, p.Z, p.H})

	ref, err := ReadCheckpoint(bytes.NewReader(plain), st.Opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(skinFile), st.Opt)
	if err != nil {
		t.Fatalf("version-2 file with a skin snapshot rejected: %v", err)
	}
	if got.List != nil {
		t.Fatal("the skin snapshot was restored into a neighbor list")
	}
	for s := 0; s < 3; s++ {
		ref.RunStep(nil)
		got.RunStep(nil)
	}
	if got.Time != ref.Time || got.Dt != ref.Dt || got.Step != ref.Step {
		t.Fatalf("clocks diverged after resume: %v/%v/%d vs %v/%v/%d",
			got.Time, got.Dt, got.Step, ref.Time, ref.Dt, ref.Step)
	}
	for i := 0; i < p.N; i++ {
		if got.P.X[i] != ref.P.X[i] || got.P.VX[i] != ref.P.VX[i] ||
			got.P.U[i] != ref.P.U[i] || got.P.H[i] != ref.P.H[i] {
			t.Fatalf("particle %d diverged after resuming from the skin-snapshot file", i)
		}
	}

	short := withSkin([][]float64{p.X, p.Y, p.Z})
	if _, err := ReadCheckpoint(bytes.NewReader(short), st.Opt); err == nil {
		t.Error("file with a truncated skin snapshot accepted")
	}
}
