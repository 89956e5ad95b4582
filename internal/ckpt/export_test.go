package ckpt

// The names below export test helpers of this package to its external
// tests, which import ckpttest and so cannot be in package ckpt.

// TestSnap is testSnap.
var TestSnap = testSnap

// TmpSuffix is the suffix of a checkpoint's temp file.
const TmpSuffix = tmpSuffix
