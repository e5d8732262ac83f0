package dispatch

// The policy's constants under the names the external tests step them by.
const (
	Attempts       = attempts
	FailThreshold  = failThreshold
	AttemptBase    = attemptBase
	AttemptPerInst = attemptPerInst
)
