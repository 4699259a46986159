let all () =
  [ Tproc.make ();
    Livermore.loop1 ();
    Livermore.loop3 ();
    Livermore.loop5 ();
    Livermore.loop12 ();
    Matmul.make ();
    Minmax.make ~data:[| 5; 3; 4; 7; 12; -3; 44; 0; 17; 2; 99; -8 |] ();
    Bitcount.make ();
    Classify.make ();
    Iosync.make () ]
