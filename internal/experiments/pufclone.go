package experiments

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/puf"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/soc"
)

// PUFCloneResult is Ablation H: cloning an SRAM PUF through the attack's
// own extraction path. A defender might fingerprint devices by their L1
// power-up state (§5.2.4's PUF application); an attacker with the Volt
// Boot apparatus — pad access plus a bootable extraction payload — can
// read that fingerprint across ordinary power cycles and replay it.
type PUFCloneResult struct {
	// EnrollStablePct is the stable-bit fraction of the enrollment built
	// from extracted images.
	EnrollStablePct float64
	// GenuineHD / GenuineAccepted score a fresh extraction of the same
	// chip against the enrollment.
	GenuineHD       float64
	GenuineAccepted bool
	// ImpostorHD / ImpostorAccepted score another chip's extraction.
	ImpostorHD       float64
	ImpostorAccepted bool
}

// extractPowerUpWay0 power cycles the board WITHOUT a probe (so the L1
// reaches its power-up state) and returns core 0's d-cache way 0 as seen
// through the standard extraction payload.
func extractPowerUpWay0(b interface {
	Spec() soc.DeviceSpec
}, run func() (*core.CacheExtraction, error)) ([]byte, error) {
	ext, err := run()
	if err != nil {
		return nil, err
	}
	return ext.Dumps[0].L1D[0], nil
}

// PUFCloneCtx enrolls a chip's d-cache power-up fingerprint from three
// attack extractions, then authenticates a fourth extraction of the same
// chip and one from different silicon.
//
// The parallel unit is the chip, not the read: successive extractions of
// one chip share its board and rng stream (each power cycle advances the
// silicon's noise state), so they must stay serial, but the two chips are
// independent silicon and fan out via runner.Map. The per-chip fan-out
// stops dispatching once ctx is cancelled and returns ctx.Err().
func PUFCloneCtx(ctx context.Context, seed uint64) (*PUFCloneResult, error) {
	collect := func(chipSeed uint64, reads int) ([][]byte, error) {
		b, env, err := newBoard(soc.BCM2711(), soc.Options{}, chipSeed)
		if err != nil {
			return nil, err
		}
		var out [][]byte
		for r := 0; r < reads; r++ {
			// Unprobed power cycle: the caches land in a fresh power-up
			// state, which the standard payload then dumps.
			b.DisconnectMain()
			env.Advance(500 * sim.Millisecond)
			b.ConnectMain()
			cfg := core.DefaultAttackConfig()
			img, err := extractPowerUpWay0(b, func() (*core.CacheExtraction, error) {
				return core.VoltBootCaches(b, cfg)
			})
			if err != nil {
				return nil, err
			}
			out = append(out, img)
		}
		return out, nil
	}

	chips := []struct {
		seed  uint64
		reads int
	}{
		{seed, 4},          // the chip under attack
		{seed + 0xD1FF, 1}, // different silicon for the impostor score
	}
	images, err := runner.MapCtx(ctx, len(chips), runtime.GOMAXPROCS(0), func(i int) ([][]byte, error) {
		return collect(chips[i].seed, chips[i].reads)
	})
	if err != nil {
		return nil, err
	}
	same, other := images[0], images[1]

	enrollment := enrollFromImages(same[:3])
	res := &PUFCloneResult{EnrollStablePct: enrollment.StableFraction() * 100}
	res.GenuineHD, res.GenuineAccepted, err = enrollment.AuthenticateImage(same[3])
	if err != nil {
		return nil, err
	}
	res.ImpostorHD, res.ImpostorAccepted, err = enrollment.AuthenticateImage(other[0])
	if err != nil {
		return nil, err
	}
	return res, nil
}

// enrollFromImages builds a puf.Enrollment by majority vote over
// already-extracted images (the attacker's offline equivalent of
// puf.Enroll, which needs live rail control).
func enrollFromImages(images [][]byte) *puf.Enrollment {
	n := len(images[0])
	reads := len(images)
	ones := make([]int, n*8)
	for _, img := range images {
		for i, b := range img {
			for k := 0; k < 8; k++ {
				ones[i*8+k] += int(b >> k & 1)
			}
		}
	}
	e := &puf.Enrollment{
		Reference:  make([]byte, n),
		StableMask: make([]byte, n),
		Reads:      reads,
	}
	for bit, c := range ones {
		if c > reads/2 {
			e.Reference[bit/8] |= 1 << (bit % 8)
		}
		if c == 0 || c == reads {
			e.StableMask[bit/8] |= 1 << (bit % 8)
		}
	}
	return e
}

// String renders Ablation H.
func (r *PUFCloneResult) String() string {
	return fmt.Sprintf(
		"Ablation H: cloning an L1-cache SRAM PUF through the extraction path\n"+
			"  enrollment from 3 extracted power-up images: %.1f%% stable bits\n"+
			"  4th extraction of the same chip:  masked HD %.3f -> accept=%v\n"+
			"  extraction from different silicon: masked HD %.3f -> accept=%v\n"+
			"  (pad access + a bootable payload reads the 'unclonable' function at will)\n",
		r.EnrollStablePct, r.GenuineHD, r.GenuineAccepted, r.ImpostorHD, r.ImpostorAccepted)
}
