from .cli import main

raise SystemExit(main())  # python -m scatcomp
