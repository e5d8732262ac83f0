package bpred

// haveAVX2 reports whether the CPU runs AVX2 with the OS saving YMM state:
// CPUID leaf 1 ECX has OSXSAVE (27) and AVX (28), XCR0 has the XMM and YMM
// state bits (1, 2), and leaf 7 EBX has AVX2 (5).
var haveAVX2 = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, c, _ := cpuid(1, 0)
	_, b, _, _ := cpuid(7, 0)
	return maxLeaf >= 7 && c&(1<<27) != 0 && c&(1<<28) != 0 && xgetbv()&6 == 6 && b&(1<<5) != 0
}()

// tageStageAVX2 is tageStage in two 8-lane AVX2 halves (tage_amd64.s). It
// runs all 16 lanes whatever n is and masks the hits to the first n, so the
// lanes past the table count must stay zero, as newTAGE leaves them.
//
//go:noescape
func tageStageAVX2(k *tageKernel, ghist []uint8, tags []uint16, p, path, newBit, pos, mask uint32, n int) (hits uint32)

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// xgetbv returns the low word of XCR0; it faults unless OSXSAVE is set.
func xgetbv() (eax uint32)
