package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
)

// TrainingFingerprint hashes everything the trained agents are a
// deterministic function of but the seed and step budget, which the
// checkpoint store keys separately: algorithm, topology, DDPG and SLA/ADMM
// settings, and the training environment as Train configures it.
// Equal fingerprints, seeds and budgets train bitwise identical agents.
func TrainingFingerprint(cfg Config) (string, error) {
	h := sha256.New()
	w := func(vals ...any) {
		for _, v := range vals {
			fmt.Fprintf(h, "%v|", v)
		}
	}
	// true stands where the retired per-RA training switch was hashed, so
	// store keys and checkpoint hashes do not move.
	w("edgeslice-training-v1", int(cfg.Algo), cfg.NumRAs, true, cfg.Rho)
	w(len(cfg.Umin))
	for _, u := range cfg.Umin {
		w(strconv.FormatFloat(u, 'g', -1, 64))
	}
	// The DDPG section hashes as hashValue walked the retired ddpg.Config:
	// that type name, then its 12 fields in their order. The tag is
	// frozen so that store keys and checkpoint hashes do not move with the
	// trainer's config type; Train always trains DDPG, so Technique is not
	// among them.
	dcfg := cfg.DDPG
	dcfg.Seed = 0 // Train derives the real seed from cfg.Seed, keyed separately
	v := reflect.ValueOf(dcfg)
	io.WriteString(h, "ddpg.Config{")
	for _, name := range []string{"Hidden", "ActorLR", "CriticLR", "Gamma", "Tau", "BatchSize",
		"ReplayCapacity", "WarmupSteps", "NoiseStd", "NoiseDecay", "NoiseMin", "Seed"} {
		fmt.Fprintf(h, "%s:", name)
		if err := hashValue(h, v.FieldByName(name)); err != nil {
			return "", fmt.Errorf("core: fingerprint ddpg config: %w", err)
		}
	}
	io.WriteString(h, "}|")

	// A System value only to resolve the training template, the one
	// environment Train trains in, hashed under RA 0's tag as when each RA
	// had its own; the config was validated by the caller's
	// NewSystem or is validated here. Normalize exactly as Train does; Seed
	// is overridden there from cfg.Seed, which the store keys separately.
	if err := cfg.Validate(); err != nil {
		return "", err
	}
	envCfg := (&System{cfg: cfg}).trainTemplate()
	envCfg.ObserveQueue = cfg.Algo != AlgoEdgeSliceNT
	envCfg.TrainCoordRandom = true
	envCfg.Seed = 0
	w("ra", 0)
	if err := hashValue(h, reflect.ValueOf(envCfg)); err != nil {
		return "", fmt.Errorf("core: fingerprint RA 0 training env: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hashValue writes a canonical byte representation of v: type names tag
// every struct, interface, and pointer so distinct shapes never collide,
// floats use the exact shortest round-trip form, and map keys are sorted.
// Channels and funcs are rejected — configs must be plain data.
func hashValue(w io.Writer, v reflect.Value) error {
	if !v.IsValid() {
		_, err := io.WriteString(w, "nil|")
		return err
	}
	switch v.Kind() {
	case reflect.Ptr, reflect.Interface:
		if v.IsNil() {
			_, err := io.WriteString(w, "nil|")
			return err
		}
		fmt.Fprintf(w, "%s{", v.Elem().Type().String())
		if err := hashValue(w, v.Elem()); err != nil {
			return err
		}
		_, err := io.WriteString(w, "}|")
		return err
	case reflect.Struct:
		t := v.Type()
		fmt.Fprintf(w, "%s{", t.String())
		for i := 0; i < t.NumField(); i++ {
			fmt.Fprintf(w, "%s:", t.Field(i).Name)
			if err := hashValue(w, v.Field(i)); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "}|")
		return err
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(w, "[%d|", v.Len())
		for i := 0; i < v.Len(); i++ {
			if err := hashValue(w, v.Index(i)); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "]|")
		return err
	case reflect.Map:
		keys := v.MapKeys()
		formatted := make([]string, len(keys))
		for i, k := range keys {
			formatted[i] = fmt.Sprintf("%v", k.Interface())
		}
		idx := make([]int, len(keys))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return formatted[idx[a]] < formatted[idx[b]] })
		fmt.Fprintf(w, "map[%d|", len(keys))
		for _, i := range idx {
			fmt.Fprintf(w, "%s:", formatted[i])
			if err := hashValue(w, v.MapIndex(keys[i])); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "]|")
		return err
	case reflect.Float32, reflect.Float64:
		_, err := io.WriteString(w, strconv.FormatFloat(v.Float(), 'g', -1, 64)+"|")
		return err
	case reflect.Bool:
		_, err := fmt.Fprintf(w, "%t|", v.Bool())
		return err
	case reflect.String:
		_, err := fmt.Fprintf(w, "%q|", v.String())
		return err
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		_, err := fmt.Fprintf(w, "%d|", v.Int())
		return err
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		_, err := fmt.Fprintf(w, "%d|", v.Uint())
		return err
	default:
		return fmt.Errorf("core: cannot fingerprint %s value", v.Kind())
	}
}
