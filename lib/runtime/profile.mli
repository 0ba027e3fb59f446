(** Per-process phase self-time accounting (host wall clock) behind the
    campaign summary's phase breakdown and [gcr campaign --profile].

    Three accumulators: run {e setup} (building engine, heap,
    collector, and workload state before the engine runs), {e tape}
    preparation (generation, artifact-store round-trips, image decode),
    and {e simulate} ([Engine.run] itself).  [Run.execute] and the
    executors add to them; the harness reads deltas around its phases.
    Fabric workers accumulate in their own process and ship deltas back
    in result frames.

    Purely observational: no value here feeds back into results. *)

type snapshot = { setup_us : int; tape_us : int; simulate_us : int }

val zero : snapshot

val add_setup_s : float -> unit

val add_tape_s : float -> unit

val add_simulate_s : float -> unit

val snapshot : unit -> snapshot

val diff : snapshot -> snapshot -> snapshot
(** [diff a b] is the per-field difference [a - b]. *)

val seconds : int -> float
(** Microseconds to seconds. *)
