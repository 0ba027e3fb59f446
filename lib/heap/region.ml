type space = Free | Eden | Survivor | Old

let space_equal (a : space) b = a = b

type t = {
  index : int;
  mutable space : space;
  mutable used_words : int;
  mutable live_words : int;
  mutable objects : Gcr_util.Ivec.t;
  mutable pinned : bool;
}

let make ~index =
  {
    index;
    space = Free;
    used_words = 0;
    live_words = 0;
    objects = Gcr_util.Ivec.create ();
    pinned = false;
  }

let reset t =
  t.space <- Free;
  t.used_words <- 0;
  t.live_words <- 0;
  Gcr_util.Ivec.clear t.objects;
  t.pinned <- false;
  t
