(** Heap-limit controllers: observe the run at safepoints, return a new
    heap limit.

    A controller's {!spec} is pure data — it lives in [Run.config],
    renders into cache keys, and marshals across the campaign fabric.
    The stateful instance ({!t}) is built per run.  Controllers consume
    only collector-independent observables (cumulative allocation, live
    words, cumulative GC-worker cycles, the simulated clock), so any
    controller composes with any collector.

    Three implementations:
    - [Fixed] — the status quo: never moves the limit.  A run under
      [Fixed] is bit-identical to a run with no controller at all.
    - [Membalancer] — the square-root rule of "Optimal Heap Limits for
      Reducing Browser Memory Use": extra heap E* = sqrt(c·g·L/s), with
      the allocation-rate/collection-speed ratio read off the spine as
      the GC time fraction.
    - [Monk] — opportunistic CPU/memory trading with a dead band:
      overhead above target buys memory, overhead below returns it. *)

type spec =
  | Fixed
  | Membalancer of { tuning : float; min_period : int }
  | Monk of { target_overhead : float; band : float; min_period : int }

val default_min_period : int
(** Cycles between decisions (rate limit), 100k. *)

val fixed : spec

val membalancer : spec
(** Default tuning (4096.0 words of rent weight — calibrated so the rule
    undercuts the best fixed factor's memory·time on steady benchmarks). *)

val monk : spec
(** Default 8% GC-overhead target with a ±50% dead band. *)

val name : spec -> string
(** Canonical lowercase name: ["fixed"], ["membalancer"], ["monk"]. *)

val of_name : string -> spec option
(** Case-insensitive, with aliases ([none]/[off], [sqrt],
    [opportunistic]); returns the default parameters for the family. *)

val valid_names : string list

val is_fixed : spec -> bool

val render : spec -> string
(** Exact parameter rendering for cache keys (floats in hex). *)

type sample = {
  now : int;  (** simulated cycles *)
  live_words : int;
  capacity_words : int;  (** the current limit *)
  allocated_words : int;  (** cumulative *)
  gc_cycles : int;  (** cumulative GC-worker cycles *)
  mutator_cycles : int;  (** cumulative mutator cycles *)
}

type t

val make : spec -> min_heap_words:int -> max_heap_words:int -> t
(** Bounds every decision: never below [min_heap_words] (or live plus
    25% copy headroom, whichever is larger), never above
    [max_heap_words]. *)

val observe : t -> sample -> int option
(** One decision step.  [None] keeps the current limit (always, for
    [Fixed]); [Some w] asks the caller to move the limit to [w] words
    (the caller rounds to regions).  Decisions are rate-limited by the
    spec's [min_period] and suppressed when within 1/16 of the current
    limit. *)
