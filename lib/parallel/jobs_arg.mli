(** The [--jobs] converter the command lines share: an integer no
    larger than {!Pool.max_jobs}.  A larger value is a usage error,
    reported before the program runs, so nothing is spawned. *)
val conv : int Cmdliner.Arg.conv
