(** Plain-text table rendering and small numeric helpers. *)

type align = Left | Right

(** Render rows under headers; columns sized to fit, missing [aligns]
    default to [Right]. *)
val render :
  ?aligns:align list -> headers:string list -> string list list -> string

val f2 : float -> string
val f3 : float -> string

(** Geometric mean ([0.0] on the empty list). *)
val geomean : float list -> float
