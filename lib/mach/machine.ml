type t = {
  cpus : int;
  memory_words : int;
}

let default = { cpus = 16; memory_words = 16 * 1024 * 1024 }

let with_cpus t cpus =
  if cpus < 1 then invalid_arg "Machine.with_cpus: cpus < 1";
  { t with cpus }
