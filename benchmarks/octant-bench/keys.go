package main

import (
	"strconv"

	"octant/internal/core"
	"octant/internal/serve"
)

// Cache keys are (target, options fingerprint, epoch). The harness needs
// any number of distinct fingerprints under which the solver does the
// same work and gives the same answer, so key k > 0 scales the weights
// of the geodb source by 1 + k·2⁻³⁰. The fingerprint encodes the float
// exactly, so every k is its own key; the source contributes nothing
// when no provider is configured, so the constraint system is the
// default one bit for bit and every answer has one reference. (Scaling a
// source that does contribute, however slightly, is a trap: see
// README.md.) Key 0 is the default request, with no options at all.
func keyWeight(k int) float64 { return 1 + float64(k)/(1<<30) }

const keySource = core.SourceGeoDB

// keyWireOptions is key k as the cluster tier's decoded wire options.
func keyWireOptions(k int) *serve.WireOptions {
	if k == 0 {
		return nil
	}
	return &serve.WireOptions{Weights: map[string]float64{keySource: keyWeight(k)}}
}

// keyOptions is key k as the request options an engine call takes.
func keyOptions(k int) []core.LocalizeOption {
	if k == 0 {
		return nil
	}
	return []core.LocalizeOption{core.WithSourceWeight(keySource, keyWeight(k))}
}

// keyFingerprint is the options fingerprint the cache tiers key k under.
func keyFingerprint(k int) string {
	o := core.NewLocalizeOptions(keyOptions(k)...)
	return o.Fingerprint()
}

func appendKey(b []byte, k int) []byte {
	if k == 0 {
		return b
	}
	b = append(b, `,"options":{"weights":{"`+keySource+`":`...)
	b = strconv.AppendFloat(b, keyWeight(k), 'g', -1, 64)
	return append(b, "}}"...)
}

// localizeBody appends the /v2/localize request for (target, k) to b.
func localizeBody(b []byte, target string, k int) []byte {
	b = append(b, `{"target":`...)
	b = strconv.AppendQuote(b, target)
	b = appendKey(b, k)
	return append(b, '}')
}

// batchBody appends the /v2/localize/batch request for targets under
// key k to b.
func batchBody(b []byte, targets []string, k int) []byte {
	b = append(b, `{"targets":[`...)
	for i, t := range targets {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, t)
	}
	b = append(b, ']')
	b = appendKey(b, k)
	return append(b, '}')
}
