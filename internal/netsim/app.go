// Package netsim implements the simulated network environment of Sec. VI-B
// (Fig. 5): per-slice FIFO service queues fed by traffic traces, a
// multi-domain service model in which each task consumes radio, transport,
// and computing resources, customizable slice performance functions, and
// the DRL reward of Eq. 15.
//
// The mobile application of Sec. VII-A (YOLO video analytics offloading) is
// modeled by AppProfile: the frame resolution determines radio/transport
// demand per task and the YOLO model size determines computing demand.
package netsim

import "fmt"

// Resource domain indices. The paper's three end-to-end domains.
const (
	ResRadio = iota
	ResTransport
	ResCompute
	NumResources
)

// ResourceNames are display names indexed by the Res* constants.
var ResourceNames = [NumResources]string{"radio", "transport", "computing"}

// AppProfile describes a slice's application in terms of the YOLO
// video-analytics workload of Sec. VII-A: a frame resolution (transmission
// load) and a YOLO computation model size (computing load).
type AppProfile struct {
	Name            string
	FrameResolution int // pixels per side: 100, 300, 500
	ModelSize       int // YOLO input size: 320, 416, 608
}

// Validate checks the profile.
func (a AppProfile) Validate() error {
	if a.FrameResolution <= 0 {
		return fmt.Errorf("netsim: frame resolution %d must be positive", a.FrameResolution)
	}
	if a.ModelSize <= 0 {
		return fmt.Errorf("netsim: model size %d must be positive", a.ModelSize)
	}
	return nil
}

// Demand returns the per-task resource demand vector, normalized so the
// paper's slice-1 profile (500x500 frames, YOLO 320x320) has a radio demand
// of 1.0. Radio and transport demands scale with the frame payload
// (resolution²); computing demand scales with the model workload
// (modelSize²), matching "higher frame resolution ⇒ heavier transmission
// traffic" and "larger computation model ⇒ more intensive workload".
func (a AppProfile) Demand() [NumResources]float64 {
	frame := float64(a.FrameResolution) * float64(a.FrameResolution)
	model := float64(a.ModelSize) * float64(a.ModelSize)
	const (
		refFrame = 500.0 * 500.0
		refModel = 320.0 * 320.0
	)
	var d [NumResources]float64
	d[ResRadio] = frame / refFrame
	d[ResTransport] = frame / refFrame
	d[ResCompute] = model / refModel
	return d
}

// Paper workload profiles (Sec. VII-C): slice 1 is traffic-heavy with a
// moderate model; slice 2 is traffic-light with an intensive model.
var (
	// HeavyTrafficApp is the paper's slice-1 application: 500x500 frames,
	// YOLO 320x320.
	HeavyTrafficApp = AppProfile{Name: "video-hd-yolo320", FrameResolution: 500, ModelSize: 320}
	// HeavyComputeApp is the paper's slice-2 application: 100x100 frames,
	// YOLO 608x608.
	HeavyComputeApp = AppProfile{Name: "video-sd-yolo608", FrameResolution: 100, ModelSize: 608}
)
