// Package waldo is a from-scratch Go implementation of Waldo, the local,
// low-cost TV white-space detection system of "Local and Low-Cost White
// Space Detection" (ICDCS 2017), together with every substrate the paper's
// evaluation depends on: a metro-scale RF environment simulator, models of
// the RTL-SDR / USRP B200 / spectrum-analyzer sensor hierarchy, the FCC
// Algorithm 1 labeling rule, a compact ML stack (SVM, Naive Bayes,
// k-means, KNN, CART), the central spectrum database with its HTTP model
// distribution protocol, the mobile White Space Device, and the baselines
// Waldo is compared against (conventional spectrum databases, V-Scope,
// sensing-only detection).
//
// # Quick start
//
//	env, _ := waldo.BuildMetroEnvironment(42)
//	campaign, _ := waldo.RunCampaign(waldo.CampaignSpec{Env: env, Samples: 2000, Seed: 1})
//	readings := campaign.Readings(47, waldo.SensorRTLSDR)
//	labels, _ := waldo.LabelReadings(readings, waldo.LabelConfig{})
//	model, _ := waldo.BuildModel(readings, labels, waldo.ConstructorConfig{ClusterK: 3})
//	label, _ := model.Classify(loc, signal)
//
// The exported surface is a façade over the internal packages; everything
// here is usable by downstream modules. The experiment harness that
// regenerates the paper's tables and figures is cmd/waldo-bench.
package waldo

import (
	"fmt"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/wardrive"
)

// Geodesy.
type (
	// Point is a WGS-84 coordinate.
	Point = geo.Point
	// BBox is a lat/lon bounding box.
	BBox = geo.BBox
)

// RF environment.
type (
	// Channel is a US UHF TV channel number (14–51).
	Channel = rfenv.Channel
	// Transmitter is a licensed TV station.
	Transmitter = rfenv.Transmitter
	// Environment is the simulated ground-truth RF field.
	Environment = rfenv.Environment
	// PathLossModel predicts median propagation loss.
	PathLossModel = rfenv.PathLossModel
)

// Sensors.
type (
	// SensorKind identifies a device model.
	SensorKind = sensor.Kind
	// SensorSpec characterizes a device front end.
	SensorSpec = sensor.Spec
	// Device is a sensor instance.
	Device = sensor.Device
	// Calibration maps raw readings to dBm.
	Calibration = sensor.Calibration
)

// Sensor kinds.
const (
	SensorRTLSDR           = sensor.KindRTLSDR
	SensorUSRPB200         = sensor.KindUSRPB200
	SensorSpectrumAnalyzer = sensor.KindSpectrumAnalyzer
)

// Data model.
type (
	// Reading is one feature-extracted spectrum measurement.
	Reading = dataset.Reading
	// Label is a white-space availability class.
	Label = dataset.Label
	// LabelConfig parameterizes Algorithm 1.
	LabelConfig = dataset.LabelConfig
	// Signal holds the RSS/CFT/AFT features of one reading.
	Signal = features.Signal
	// FeatureSet selects classifier inputs.
	FeatureSet = features.Set
)

// Labels and feature sets.
const (
	LabelSafe    = dataset.LabelSafe
	LabelNotSafe = dataset.LabelNotSafe

	FeaturesLocation          = features.SetLocation
	FeaturesLocationRSS       = features.SetLocationRSS
	FeaturesLocationRSSCFT    = features.SetLocationRSSCFT
	FeaturesLocationRSSCFTAFT = features.SetLocationRSSCFTAFT
)

// Core system.
type (
	// Model is a downloadable White Space Detection Model.
	Model = core.Model
	// ConstructorConfig parameterizes the Model Constructor.
	ConstructorConfig = core.ConstructorConfig
	// ClassifierKind selects the per-locality model family.
	ClassifierKind = core.ClassifierKind
	// Detector is the streaming White Space Detector.
	Detector = core.Detector
	// DetectorConfig parameterizes it.
	DetectorConfig = core.DetectorConfig
	// Decision is a detection outcome.
	Decision = core.Decision
	// Updater is the Global Model Updater.
	Updater = core.Updater
	// UpdaterConfig parameterizes it.
	UpdaterConfig = core.UpdaterConfig
	// UploadBatch is a WSD measurement upload.
	UploadBatch = core.UploadBatch
)

// Classifier kinds and FCC constants.
const (
	ClassifierSVM       = core.KindSVM
	ClassifierNB        = core.KindNB
	ClassifierSVMExact  = core.KindSVMExact
	ClassifierLinearSVM = core.KindLinearSVM

	// ThresholdDBm is the FCC decodability threshold (−84 dBm).
	ThresholdDBm = core.ThresholdDBm
	// ProtectRadiusM is the portable-device separation (6 km).
	ProtectRadiusM = core.ProtectRadiusM
)

// Campaigns.
type (
	// Route is an ordered war-driving sample path.
	Route = wardrive.Route
	// Campaign is a collected multi-sensor dataset.
	Campaign = wardrive.Campaign
)

// Channel sets from the paper.
var (
	// MeasuredChannels are the nine campaign channels.
	MeasuredChannels = rfenv.MeasuredChannels
	// EvalChannels are the seven system-evaluation channels.
	EvalChannels = rfenv.EvalChannels
)

// BuildMetroEnvironment constructs the default 700 km² synthetic metro
// environment whose occupancy structure mirrors the paper's Atlanta
// campaign. The seed selects the shadowing realization.
func BuildMetroEnvironment(seed uint64) (*Environment, error) {
	return rfenv.BuildMetro(seed)
}

// CampaignSpec sizes a measurement campaign.
type CampaignSpec struct {
	// Env is the RF world; required.
	Env *Environment
	// Samples is the number of readings per channel per sensor; 0 means
	// the paper's 5,282.
	Samples int
	// Sensors defaults to the paper's rig (RTL-SDR, USRP, analyzer).
	Sensors []SensorSpec
	// Channels defaults to every channel with a transmitter.
	Channels []Channel
	// Seed drives the route and all measurement noise.
	Seed int64
}

// RunCampaign generates a war-driving route over the environment and
// collects readings with every sensor.
func RunCampaign(spec CampaignSpec) (*Campaign, error) {
	if spec.Env == nil {
		return nil, fmt.Errorf("waldo: nil environment")
	}
	route, err := wardrive.GenerateRoute(wardrive.RouteConfig{
		Area:    spec.Env.Area,
		Samples: spec.Samples,
		Seed:    spec.Seed,
	})
	if err != nil {
		return nil, err
	}
	return wardrive.Run(wardrive.CampaignConfig{
		Env:      spec.Env,
		Route:    route,
		Sensors:  spec.Sensors,
		Channels: spec.Channels,
		Seed:     spec.Seed + 1,
	})
}

// LabelReadings applies the FCC-derived Algorithm 1: a reading is NotSafe
// if any reading within the protection radius exceeds the decodability
// threshold.
func LabelReadings(readings []Reading, cfg LabelConfig) ([]Label, error) {
	return dataset.LabelReadings(readings, cfg)
}

// BuildModel trains a White Space Detection Model (localities
// identification + per-locality classifiers) from labeled readings of one
// channel and sensor family.
func BuildModel(readings []Reading, labels []Label, cfg ConstructorConfig) (*Model, error) {
	return core.BuildModel(readings, labels, cfg)
}

// NewDetector wraps a model with the §3.3 streaming detector (smoothing,
// outlier rejection, α-convergence).
func NewDetector(model *Model, cfg DetectorConfig) (*Detector, error) {
	return core.NewDetector(model, cfg)
}

// NewUpdater builds a Global Model Updater for one channel/sensor store.
func NewUpdater(cfg UpdaterConfig) (*Updater, error) {
	return core.NewUpdater(cfg)
}

// NewSensor returns a device of the given kind, uncalibrated.
func NewSensor(kind SensorKind) (*Device, error) {
	spec, err := sensor.SpecFor(kind)
	if err != nil {
		return nil, err
	}
	return sensor.NewDevice(spec), nil
}

// AntennaCorrectionDB is the paper's uniform +7.5 dB antenna-height
// correction factor (Hata a(h_m) across the 2 m → 10 m gap).
func AntennaCorrectionDB() float64 { return rfenv.AntennaHeightGapCorrectionDB() }
