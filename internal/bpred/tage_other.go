//go:build !amd64

package bpred

// haveAVX2 is false off amd64: every TAGE runs the Go stage.
const haveAVX2 = false

func tageStageAVX2(k *tageKernel, ghist []uint8, tags []uint16, p, path, newBit, pos, mask uint32, n int) uint32 {
	panic("bpred: the AVX2 TAGE stage needs amd64")
}
