package dispatch

// The policy's constants under the names the external tests step them by.
const (
	Attempts       = attempts
	BackoffCap     = backoffCap
	FailThreshold  = failThreshold
	ReviveAfter    = reviveAfter
	AttemptBase    = attemptBase
	AttemptPerInst = attemptPerInst
)
