(** Description of the simulated hardware.

    The paper's testbed is an Intel Core i9-9900K: 8 cores / 16 hardware
    threads, fixed frequency (Turbo Boost disabled), 128 GiB of RAM.  We
    model it as [cpus] identical logical processors at a fixed clock; SMT
    sharing is folded into the cost model rather than modelled
    structurally (documented substitution in DESIGN.md). *)

type t = {
  cpus : int;  (** logical processors available to the process *)
  memory_words : int;
      (** physical memory available for the heap; bounds how large an
          Epsilon (no-GC) heap may grow before the run is declared
          infeasible, mirroring the paper's use of Epsilon only "where it is
          able to run a benchmark without exhausting the memory" *)
}

val default : t
(** 16 CPUs, 16 Mi-words (128 MiB) of heap memory — the scaled-down
    equivalent of the paper's machine (see DESIGN.md §6 on scaling). *)

val with_cpus : t -> int -> t
(** Restrict the CPU count (multi-tenant / opportunity-cost studies). *)
