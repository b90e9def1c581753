import sys

from .verbs import main

sys.exit(main())
