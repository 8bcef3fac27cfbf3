// Package sched executes simulated programs against a shared cache
// hierarchy under the two sharing settings of the paper's threat model
// (Section III): simultaneous multi-threading (two hyper-threads issuing
// in parallel on one physical core) and time-sliced sharing (processes
// alternating on the core under an OS round-robin scheduler).
//
// Programs are ordinary Go functions that receive an *Env and issue memory
// accesses, busy-waits and timer reads through it. Each program runs as
// an iter.Pull coroutine driven by the goroutine that calls Machine.Run:
// the scheduler resumes it, and it yields back from inside a charged
// action whenever the scheduling decision could change. Exactly one program
// runs at any instant, so simulations are fully deterministic given the
// seed, and a panic in a program comes out of Machine.Run as a *Panic
// holding the original value and the program's stack.
//
// Time accounting:
//
//   - SMT: each hardware thread has its own wall clock; the scheduler
//     always advances the thread whose current action completes earliest.
//     Per-action multiplicative jitter models issue-slot and port
//     contention between the hyper-threads, producing the irregular
//     interleaving the paper's channels experience.
//
//   - Time-sliced: a single core clock and a round-robin quantum. A
//     program's long busy-waits are consumed lazily across its own slices
//     while other programs run in between, so a receiver spinning for
//     Tr = 10^8 cycles costs the simulator only Tr/quantum scheduling
//     steps, not 10^8 events.
//
// The machine normally wraps a hier.Hierarchy (Env.Access / Measure);
// programs that model their memory system elsewhere — the scheduled
// key-recovery attack drives its Target adapters directly — may build
// a machine without one and charge latencies through Env.Busy.
package sched
