package core

import (
	"fmt"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dsp"
	"github.com/wsdetect/waldo/internal/geo"
)

// UploadValidator screens crowd-sourced uploads before they reach the
// Global Model Updater. Paper §3.4 points at the approach of Fatemieh et
// al. [26]: correlate a contribution with trusted readings nearby and with
// signal-propagation physics to detect malicious or broken contributors.
//
// The validator implements both checks against the trusted store:
//
//   - neighborhood consistency: an uploaded RSS must agree with the
//     trusted readings within the shadowing-correlation neighborhood, up
//     to a tolerance (log-normal shadowing bounds how different two
//     nearby readings can plausibly be);
//   - isolation: contributions claiming locations with no trusted
//     coverage at all cannot be corroborated and are rejected — a Sybil
//     attacker cannot invent coverage in unmeasured areas.
//
// It is not safe for concurrent use; guard it externally or use one per
// goroutine over a shared store snapshot.
type UploadValidator struct {
	cfg   ValidatorConfig
	index *geo.GridIndex
	store []dataset.Reading
}

// ValidatorConfig parameterizes screening.
type ValidatorConfig struct {
	// NeighborhoodM is the radius within which trusted readings must
	// corroborate an upload. Default 500 m (several shadowing
	// decorrelation lengths).
	NeighborhoodM float64
	// ToleranceDB is the maximum allowed |uploaded − trusted median| RSS
	// gap within the neighborhood. Default 15 dB (≈3σ of urban
	// shadowing plus sensor error).
	ToleranceDB float64
	// MinNeighbors is the number of trusted readings required to
	// corroborate; uploads in unmeasured areas are rejected. Default 3.
	MinNeighbors int
	// MaxSuspectFrac is the fraction of a batch allowed to fail checks
	// before the whole batch is rejected. Default 0.1.
	MaxSuspectFrac float64
}

func (c *ValidatorConfig) defaults() error {
	if c.NeighborhoodM == 0 {
		c.NeighborhoodM = 500
	}
	if c.ToleranceDB == 0 {
		c.ToleranceDB = 15
	}
	if c.MinNeighbors == 0 {
		c.MinNeighbors = 3
	}
	if c.MaxSuspectFrac == 0 {
		c.MaxSuspectFrac = 0.1
	}
	if c.NeighborhoodM < 0 || c.ToleranceDB <= 0 || c.MinNeighbors < 1 ||
		c.MaxSuspectFrac < 0 || c.MaxSuspectFrac > 1 {
		return fmt.Errorf("core: invalid validator config %+v", *c)
	}
	return nil
}

// NewUploadValidator indexes the trusted store (war-driving data or
// previously accepted uploads) for one channel.
func NewUploadValidator(trusted []dataset.Reading, cfg ValidatorConfig) (*UploadValidator, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if len(trusted) == 0 {
		return nil, fmt.Errorf("core: validator needs a trusted store")
	}
	locs := make([]geo.Point, len(trusted))
	for i := range trusted {
		locs[i] = trusted[i].Loc
	}
	idx, err := geo.NewGridIndex(trusted[0].Loc, cfg.NeighborhoodM, locs)
	if err != nil {
		return nil, err
	}
	return &UploadValidator{cfg: cfg, index: idx, store: trusted}, nil
}

// CheckReading screens one uploaded reading. A nil error means the reading
// is corroborated by the trusted store.
func (v *UploadValidator) CheckReading(r dataset.Reading) error {
	var neighbors []float64
	v.index.WithinRadius(r.Loc, v.cfg.NeighborhoodM, func(id int) bool {
		if v.store[id].Channel == r.Channel {
			neighbors = append(neighbors, v.store[id].Signal.RSSdBm)
		}
		return true
	})
	if len(neighbors) < v.cfg.MinNeighbors {
		return fmt.Errorf("core: reading at %v has %d trusted neighbors within %.0f m, need %d",
			r.Loc, len(neighbors), v.cfg.NeighborhoodM, v.cfg.MinNeighbors)
	}
	med := dsp.Median(neighbors)
	if diff := r.Signal.RSSdBm - med; diff > v.cfg.ToleranceDB || diff < -v.cfg.ToleranceDB {
		return fmt.Errorf("core: reading RSS %.1f dBm deviates %.1f dB from the trusted neighborhood median %.1f",
			r.Signal.RSSdBm, diff, med)
	}
	return nil
}

// CheckBatch screens a whole upload. It returns the indices of suspect
// readings; the error is non-nil when the suspect fraction exceeds the
// configured bound (reject the contributor) or the batch is empty.
func (v *UploadValidator) CheckBatch(batch UploadBatch) (suspects []int, err error) {
	if len(batch.Readings) == 0 {
		return nil, fmt.Errorf("core: empty upload")
	}
	for i := range batch.Readings {
		if cerr := v.CheckReading(batch.Readings[i]); cerr != nil {
			suspects = append(suspects, i)
		}
	}
	frac := float64(len(suspects)) / float64(len(batch.Readings))
	if frac > v.cfg.MaxSuspectFrac {
		return suspects, fmt.Errorf("core: %.0f%% of the upload (%d/%d readings) failed corroboration",
			frac*100, len(suspects), len(batch.Readings))
	}
	return suspects, nil
}

// FilterBatch returns a copy of the batch with suspect readings removed,
// or an error when the batch as a whole fails screening.
func (v *UploadValidator) FilterBatch(batch UploadBatch) (UploadBatch, error) {
	suspects, err := v.CheckBatch(batch)
	if err != nil {
		return UploadBatch{}, err
	}
	if len(suspects) == 0 {
		return batch, nil
	}
	bad := make(map[int]bool, len(suspects))
	for _, i := range suspects {
		bad[i] = true
	}
	out := UploadBatch{CISpanDB: batch.CISpanDB}
	for i := range batch.Readings {
		if !bad[i] {
			out.Readings = append(out.Readings, batch.Readings[i])
		}
	}
	return out, nil
}
